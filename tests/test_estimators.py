import dataclasses
import itertools
import math
import multiprocessing
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hrtwist import (
    Lognormal,
    ParameterError,
    SumProblem,
    Weibull,
    is_estimate,
    naive_mc,
    solve_pprime,
)
from hrtwist import RandomStream, estimators
from hrtwist.estimators import EstimateResult
from hrtwist.solver import log_weight
from hrtwist.streams import uniforms_from_words

from conftest import WB_PAIR_TAIL_55DB, lognormal_pair, random_component, weibull_pair


@pytest.fixture
def single_weibull_gamma4():
    # exact tail: P(X > 4) = exp(-2)
    return SumProblem((Weibull(0.5, 1.0),), 4.0)


class TestNaiveMC:
    def test_tiny_threshold_always_hits(self):
        p = SumProblem((Weibull(0.5, 1.0),), 1e-300)
        r = naive_mc(p, 1000, 7)
        assert r.alpha_hat == 1.0
        assert r.hit_frequency == 1000

    def test_closed_form_tail(self, single_weibull_gamma4):
        r = naive_mc(single_weibull_gamma4, 1_000_000, 42)
        exact = math.exp(-2.0)
        assert abs(r.alpha_hat - exact) <= 3.0 * r.std_error

    def test_alpha_is_hit_fraction(self, single_weibull_gamma4):
        r = naive_mc(single_weibull_gamma4, 12345, 0)
        assert r.alpha_hat == r.hit_frequency / 12345
        assert 0.0 <= r.alpha_hat <= 1.0

    def test_table1_order_of_magnitude(self):
        r = naive_mc(lognormal_pair(20.0), 100_000, 99)
        assert 40 <= r.hit_frequency <= 180


class TestISEstimate:
    def test_zero_twist_equals_naive(self, single_weibull_gamma4):
        a = naive_mc(single_weibull_gamma4, 50_000, 11)
        b = is_estimate(single_weibull_gamma4, 0.0, 50_000, 11)
        assert a == b
        assert b.second_moment_weight == b.alpha_hat  # weights in {0, 1}

    def test_table1_lognormal_20db(self):
        problem = lognormal_pair(20.0)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 100_000, 1234)
        assert 7e-4 <= r.alpha_hat <= 1.2e-3
        assert 24_000 <= r.hit_frequency <= 31_000

    def test_table2_weibull_20db(self):
        problem = weibull_pair(20.0)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 100_000, 1234)
        assert 0.9e-4 <= r.alpha_hat <= 1.25e-4
        assert 26_000 <= r.hit_frequency <= 31_000

    def test_unbiased_across_thetas(self, single_weibull_gamma4):
        exact = math.exp(-2.0)
        for theta in (0.3, 0.6, 0.9):
            r = is_estimate(single_weibull_gamma4, theta, 100_000, 5)
            assert abs(r.alpha_hat - exact) <= 3.0 * r.std_error

    def test_hit_frequency_follows_twisted_tail(self):
        # the core samples each component from the law with survival
        # S^(1 - theta); for N = 1 a hit is one draw past gamma
        m = 200_000
        components = (Weibull(0.5, 1.0), Weibull(0.3, 2.0),
                      Lognormal.from_db(0.0, 6.0), Lognormal(1.0, 0.8))
        stream = 0
        for comp in components:
            for tail in (0.2, 1e-2, 1e-4):
                gamma = float(comp.quantile_from_log_sf(math.log(tail)))
                problem = SumProblem((comp,), gamma)
                for theta in (0.0, 0.3, 0.8, 0.95):
                    q = math.exp((1.0 - theta) * float(comp.log_survival(gamma)))
                    r = is_estimate(problem, theta, m, 42, stream_id=stream)
                    stream += 1
                    se = math.sqrt(q * (1.0 - q) / m)
                    assert abs(r.hit_frequency / m - q) <= 4.0 * se, (
                        comp, tail, theta)

    def test_variance_identity(self):
        r = is_estimate(lognormal_pair(20.0), 0.74, 10_000, 3)
        m = r.sample_count
        expect = (m / (m - 1.0)) * (
            r.second_moment_weight - r.alpha_hat ** 2)
        assert m * r.std_error ** 2 == pytest.approx(expect, rel=1e-12)

    def test_deep_threshold_no_overflow(self):
        # gamma_db = 50 on both families: weights stay finite, alpha > 0
        for problem in (weibull_pair(50.0), lognormal_pair(50.0)):
            sol = solve_pprime(problem)
            r = is_estimate(problem, sol.theta_star, 20_000, 17)
            assert math.isfinite(r.alpha_hat) and r.alpha_hat > 0.0
            assert math.isfinite(r.second_moment_weight)

    def test_invalid_theta(self, single_weibull_gamma4):
        with pytest.raises(ParameterError):
            is_estimate(single_weibull_gamma4, 1.0, 100, 0)
        with pytest.raises(ParameterError):
            is_estimate(single_weibull_gamma4, 0.5, 0, 0)

    # a run starts a thread per chunk up to `workers`, so these must fail
    # before any thread is started; never start that many, even here
    @pytest.mark.parametrize("workers", [0, -3, estimators.MAX_WORKERS + 1, 5000])
    def test_invalid_workers(self, monkeypatch, single_weibull_gamma4, workers):
        class NoThread(Exception):
            pass

        def no_thread(*args, **kwargs):
            raise NoThread

        def no_draw(self, offset, count):
            raise AssertionError("words were drawn")

        monkeypatch.setattr(estimators.threading, "Thread", no_thread)
        monkeypatch.setattr(RandomStream, "words_at", no_draw)
        m = 100 * estimators.CHUNK_SIZE
        # the runner builds its helpers from this factory: a valid run on
        # two threads reaches it before any word is drawn
        with pytest.raises(NoThread):
            is_estimate(single_weibull_gamma4, 0.5, m, 0, workers=2)
        with pytest.raises(ParameterError, match="workers"):
            is_estimate(single_weibull_gamma4, 0.5, m, 0, workers=workers)
        with pytest.raises(ParameterError, match="workers"):
            naive_mc(single_weibull_gamma4, m, 0, workers=workers)


class TestRunArguments:
    def test_integer_types_agree(self):
        problem = weibull_pair(20.0)
        ref = is_estimate(problem, 0.8, 40_000, 3, workers=2)
        assert is_estimate(problem, 0.8, np.int64(40_000), np.int64(3),
                           stream_id=np.uint64(0), workers=np.int64(2)) == ref

    @pytest.mark.parametrize("kwargs", [
        {"sample_count": 1e4}, {"sample_count": 10_000.5},
        {"workers": 2.0}, {"seed": 2 ** 63}, {"seed": -2 ** 63 - 1},
        {"seed": 2 ** 64 + 7}, {"seed": 1.5}, {"stream_id": -1},
        {"stream_id": 2 ** 64}])
    def test_bad_arguments_raise(self, kwargs):
        args = {"sample_count": 10_000, "seed": 7, **kwargs}
        with pytest.raises(ParameterError):
            is_estimate(weibull_pair(20.0), 0.8, **args)
        with pytest.raises(ParameterError):
            naive_mc(weibull_pair(0.0), **args)

    @pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 63 - 1])
    def test_extreme_seeds_run(self, seed):
        r = is_estimate(weibull_pair(20.0), 0.8, 10_000, seed)
        assert r.hit_frequency > 0


class TestDeterminism:
    def test_bit_identical_repeats(self):
        problem = lognormal_pair(25.0)
        a = is_estimate(problem, 0.8, 70_000, 2024)
        b = is_estimate(problem, 0.8, 70_000, 2024)
        assert a == b

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_irrelevant(self, monkeypatch, workers):
        problem = weibull_pair(20.0)
        serial = is_estimate(problem, 0.8, 100_000, 55, workers=1)
        parallel = is_estimate(problem, 0.8, 100_000, 55, workers=workers)
        assert serial == parallel
        # more chunks than threads and a ragged tail, on the table-free sum
        # and on a tabled one: every pass is one chunk
        size = estimators.CHUNK_SIZE
        m = (workers + 1) * size + size // 2
        for problem, theta in ((problem, 0.8), (lognormal_pair(20.0), 0.74)):
            serial = (is_estimate(problem, theta, m, 55, workers=1),
                      naive_mc(problem, m, 55, stream_id=1))
            with monkeypatch.context() as patch:
                sizes = _pass_sizes(patch)
                assert (is_estimate(problem, theta, m, 55, workers=workers),
                        naive_mc(problem, m, 55, stream_id=1, workers=workers)) == serial
            assert sorted(sizes) == 2 * [size // 2] + 2 * (workers + 1) * [size]

    def test_seed_changes_result(self):
        problem = weibull_pair(20.0)
        a = is_estimate(problem, 0.8, 10_000, 1)
        b = is_estimate(problem, 0.8, 10_000, 2)
        assert a.alpha_hat != b.alpha_hat


def _words_in_flight(monkeypatch):
    """Spy on `_pass_stats`: the returned list holds the most words that
    live passes held at once, and the most passes that were live at once."""
    pass_stats, lock, live, most = estimators._pass_stats, threading.Lock(), [0, 0], [0, 0]

    def spy(problem, theta, cut, stream, start, stop):
        words = (stop - start) * problem.n
        with lock:
            live[0] += words
            live[1] += 1
            most[:] = max(most[0], live[0]), max(most[1], live[1])
        try:
            time.sleep(0.01)  # long enough for free threads to overlap
            return pass_stats(problem, theta, cut, stream, start, stop)
        finally:
            with lock:
                live[0] -= words
                live[1] -= 1

    monkeypatch.setattr(estimators, "_pass_stats", spy)
    return most


def _thread_counts(monkeypatch):
    """Spy on `_map_on_threads`: the returned list holds each run's thread
    count."""
    map_on_threads, counts = estimators._map_on_threads, []

    def spy(fn, starts, stops, threads):
        counts.append(threads)
        return map_on_threads(fn, starts, stops, threads)

    monkeypatch.setattr(estimators, "_map_on_threads", spy)
    return counts


def _pass_sizes(monkeypatch):
    """Spy on `_pass_stats`: the returned list holds each pass's row count."""
    pass_stats, sizes = estimators._pass_stats, []

    def spy(problem, theta, cut, stream, start, stop):
        sizes.append(stop - start)
        return pass_stats(problem, theta, cut, stream, start, stop)

    monkeypatch.setattr(estimators, "_pass_stats", spy)
    return sizes


class TestThreads:
    def test_chunk_rows_follow_the_word_bound(self):
        # 2^16 rows up to N = 512 and 2^15 above it; from N = 9 on the word
        # bound, not MAX_WORKERS, limits a run's threads, to 512 // N or 1
        for n in (1, 2, 9, 64, 512, 513, 600, estimators.MAX_COMPONENTS):
            rows = estimators._chunk_rows(n)
            assert rows == (1 << 16 if n <= 512 else 1 << 15)
            assert rows * n <= estimators.MAX_WORDS == 1 << 25
            if n >= 9:
                assert estimators.MAX_WORDS // (rows * n) == max(1, 512 // n)

    # a run holds one chunk a thread, and no more words at once than
    # MAX_WORDS, nor than the pass rule of fixed half-size chunks held: up
    # to two a pass, and MAX_COMPONENTS // N of them a run
    @pytest.mark.parametrize("workers", [1, 4, 8])
    @pytest.mark.parametrize("n", [2, 64, 256, 512, 600, 1024])
    def test_chunks_in_flight_bounded_by_words(self, monkeypatch, n, workers):
        # the real constants scaled by 2^-11: 32 rows a chunk up to N = 512
        monkeypatch.setattr(estimators, "MAX_WORDS", 1 << 14)
        monkeypatch.setattr(estimators, "CHUNK_SIZE", 1 << 5)
        rows = 1 << 5 if n <= 512 else 1 << 4
        assert estimators._chunk_rows(n) == rows
        problem = SumProblem.from_db([Lognormal.from_db(0.0, 6.0)] * n,
                                     10.0 * math.log10(3.0 * n))
        for m in (9 * rows - 5, rows + 1):  # a ragged last chunk
            chunks = -(-m // rows)
            serial = is_estimate(problem, 0.5, m, 9, workers=1)
            assert serial.hit_frequency > 0
            with monkeypatch.context() as patch:
                most, counts = _words_in_flight(patch), _thread_counts(patch)
                assert is_estimate(problem, 0.5, m, 9, workers=workers) == serial
            threads = min(workers, chunks, (1 << 14) // (rows * n))
            assert counts == [threads]
            assert most[0] <= threads * rows * n <= 1 << 14
            assert most[0] <= min(2 * workers, max(1, estimators.MAX_COMPONENTS // n)) * 16 * n
            assert 1 <= most[1] <= threads
            if threads > 1:
                assert most[1] > 1  # the threads do run chunks side by side

    @pytest.mark.parametrize("problem, m", [
        (weibull_pair(20.0), 1000),  # one chunk
        (weibull_pair(40.0), 3 * estimators.CHUNK_SIZE + 5)],  # no word cut
        ids=["one-chunk", "no-cut"])
    def test_no_helper_without_chunks_to_share(self, monkeypatch, problem, m):
        # a run of one thread runs every pass in the caller's thread; a run
        # without a cut runs no pass at all
        serial = (is_estimate(problem, 0.3, m, 4, workers=1), naive_mc(problem, m, 4))
        pass_stats, idents = estimators._pass_stats, set()

        def spy(*args, **kwargs):
            idents.add(threading.get_ident())
            return pass_stats(*args, **kwargs)

        monkeypatch.setattr(estimators, "_pass_stats", spy)
        assert (is_estimate(problem, 0.3, m, 4, workers=4),
                naive_mc(problem, m, 4, workers=4)) == serial
        assert idents <= {threading.get_ident()}

    def test_runs_leave_no_thread_behind(self):
        # a run joins its helper threads before it returns
        problem, m = lognormal_pair(20.0), 2 * estimators.CHUNK_SIZE
        before = threading.enumerate()
        serial = (is_estimate(problem, 0.74, m, 3), naive_mc(problem, m, 3))
        assert (is_estimate(problem, 0.74, m, 3, workers=2),
                naive_mc(problem, m, 3, workers=2)) == serial
        assert threading.enumerate() == before

    def test_helpers_stay_within_each_count(self, monkeypatch):
        # eight chunks of 64 rows on two, three or four threads, one chunk a
        # pass.  The caller is one of a run's T threads, so at
        # most T - 1 helper threads are alive during the run, whatever
        # count the run before it asked for
        monkeypatch.setattr(estimators, "CHUNK_SIZE", 64)
        problem, m = lognormal_pair(20.0), 8 * 64
        serial = is_estimate(problem, 0.74, m, 9, workers=1)
        pass_stats, lock, live, most, alive = (
            estimators._pass_stats, threading.Lock(), [0], [0], [])
        before = set(threading.enumerate())

        def spy(*args, **kwargs):
            with lock:
                live[0] += 1
                most[0] = max(most[0], live[0])
                # every thread alive now and not before the runs is a helper
                alive.append(len(set(threading.enumerate()) - before))
            try:
                time.sleep(0.01)  # long enough for free threads to overlap
                return pass_stats(*args, **kwargs)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(estimators, "_pass_stats", spy)
        for workers in (2, 2, 3, 2, 4, 2):
            most[0] = 0
            alive.clear()
            assert is_estimate(problem, 0.74, m, 9, workers=workers) == serial
            assert 2 <= most[0] <= workers
            if workers > 2:
                assert most[0] > 2
            assert 1 <= max(alive) <= workers - 1

    def test_concurrent_callers_equal_serial(self, monkeypatch):
        # two user threads, each asking for its own thread count; with more
        # threads than cores, many small passes and a short switch interval,
        # a pass lost or run twice would change a result
        monkeypatch.setattr(estimators, "CHUNK_SIZE", 64)
        cases = [(lognormal_pair(20.0), 0.74, 8), (weibull_pair(20.0), 0.8, 3)]
        m = 40 * 64 + 11
        serial = [is_estimate(problem, theta, m, 5) for problem, theta, _ in cases]
        barrier, results = threading.Barrier(len(cases)), [[] for _ in cases]

        def caller(k):
            problem, theta, workers = cases[k]
            barrier.wait()
            for _ in range(20):
                results[k].append(is_estimate(problem, theta, m, 5, workers=workers))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[r] * 20 for r in serial]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_starts_its_own_helpers(self):
        problem, m = lognormal_pair(20.0), 2 * estimators.CHUNK_SIZE
        # from Python 3.12, os.fork warns, an error here, in a process
        # with threads besides the main one: a run must leave none
        parent = is_estimate(problem, 0.74, m, 6, workers=2)
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_estimate_into, args=(send, problem, 0.74, m, 6, 2))
        child.start()
        send.close()
        try:
            assert receive.poll(120), "the forked child's estimate hung"
            assert receive.recv() == parent
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join()
            receive.close()
            child.close()

    def test_process_exits_after_a_threaded_run(self):
        # a process whose run used helper threads exits cleanly
        src = str(Path(estimators.__file__).resolve().parents[1])
        script = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                  "from hrtwist import Lognormal, SumProblem, is_estimate\n"
                  "p = SumProblem.from_db([Lognormal.from_db(0.0, 6.0)] * 2, 20.0)\n"
                  "print(is_estimate(p, 0.74, 200_000, 1, workers=2).hit_frequency)\n")
        proc = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0 and int(proc.stdout) > 0, proc.stderr

    def test_failing_pass_reaches_the_caller(self, monkeypatch):
        # 40 chunks of 64 rows on three threads, one a pass: a helper's
        # first pass raises, takes the passes left away, and the error
        # reaches the caller once the other threads end their current pass
        monkeypatch.setattr(estimators, "CHUNK_SIZE", 64)
        problem, m, threads = lognormal_pair(20.0), 40 * 64, 3
        pass_stats, lock, caller = estimators._pass_stats, threading.Lock(), threading.get_ident()
        started, failed_at = [], []

        class PassFailed(Exception):
            pass

        def spy(*args, **kwargs):
            with lock:
                started.append(threading.get_ident())
                fail = not failed_at and started[-1] != caller
                if fail:
                    failed_at.append(len(started))
            if fail:
                raise PassFailed
            time.sleep(0.01)  # long enough for the failure to drain the rest
            return pass_stats(*args, **kwargs)

        monkeypatch.setattr(estimators, "_pass_stats", spy)
        before = threading.enumerate()
        with pytest.raises(PassFailed):
            is_estimate(problem, 0.74, m, 9, workers=threads)
        assert failed_at and len(started) - failed_at[0] <= threads - 1
        assert threading.enumerate() == before


def _estimate_into(conn, problem, theta, m, seed, workers):
    """A fork child's body: one IS estimate, sent down `conn`."""
    conn.send(is_estimate(problem, theta, m, seed, workers=workers))
    conn.close()


class TestChunkMemory:
    # 64 laws at 10 dB and theta 0.5: every row passes the word cut and
    # every row hits, so the weights depend on the words alone and both
    # families give this result (regression constants of the sampling core)
    ALL_HITS = EstimateResult(
        alpha_hat=0.024273908109737178, log_alpha_hat=-3.718353245847805,
        sample_count=4096, hit_frequency=4096,
        second_moment_weight=0.6170263418893602, std_error=0.01226923367863345,
        second_moment_std_error=0.4264214103726894,
        theta_used=0.5, min_hazard_sum_hit=81.5931376750982)
    # the weights go through numpy's exp, whose last bits depend on the SIMD
    # path it dispatches to: with AVX-512 disabled, the float fields of
    # ALL_HITS come out up to 2 ulps off, which this bound covers
    ALL_HITS_ULPS = 8

    def assert_all_hits(self, result):
        for field in dataclasses.fields(EstimateResult):
            got, want = getattr(result, field.name), getattr(self.ALL_HITS, field.name)
            if isinstance(want, int):
                assert got == want, field.name
            else:
                assert abs(got - want) <= self.ALL_HITS_ULPS * math.ulp(want), field.name

    @pytest.mark.parametrize("law", [Lognormal.from_db(0.0, 6.0),
                                     Weibull(0.5, 1.0)],
                             ids=["table", "no-table"])
    def test_chunk_keeping_every_row_holds_one_copy(self, law):
        n, m = 64, 4096
        problem = SumProblem.from_db([law] * n, 10.0)
        # the first run loads scipy for the lognormal law, outside the trace
        first = is_estimate(problem, 0.5, m, 3)
        tracemalloc.start()
        try:
            result = is_estimate(problem, 0.5, m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == first and result.hit_frequency == m
        self.assert_all_hits(result)
        # a copy of the kept rows beside the drawn block would make it 2x
        assert peak < 1.5 * m * n * 8

    @pytest.mark.parametrize("law", [Lognormal.from_db(0.0, 6.0),
                                     Weibull(0.5, 1.0)],
                             ids=["table", "no-table"])
    def test_two_chunk_run_holds_one_copy(self, monkeypatch, law):
        n, m = 64, 4096
        # two chunks on one thread, one pass each
        monkeypatch.setattr(estimators, "CHUNK_SIZE", m // 2)
        problem = SumProblem.from_db([law] * n, 10.0)
        first = is_estimate(problem, 0.5, m, 3)
        sizes = _pass_sizes(monkeypatch)
        tracemalloc.start()
        try:
            result = is_estimate(problem, 0.5, m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == first and sizes == [m // 2, m // 2]
        # the same rows and hits as one chunk, summed in other groupings
        assert result.hit_frequency == m
        assert result.alpha_hat == pytest.approx(self.ALL_HITS.alpha_hat, rel=1e-12)
        # a copy of the kept rows beside the drawn chunk, or both chunks'
        # words at once, would make it 2x
        assert peak < 1.5 * (m // 2) * n * 8


def _full_inversion_chunk_stats(problem, theta, stream, start, stop):
    """The sampling core without the survival cut: every row is inverted."""
    n = problem.n
    u = stream.uniforms_at(start * n, (stop - start) * n).reshape(-1, n)
    x = np.empty_like(u)
    hazard_sum = np.zeros(u.shape[0])
    for i, comp in enumerate(problem.components):
        log_sf = np.log1p(-u[:, i]) / (1.0 - theta)
        x[:, i] = comp.quantile_from_log_sf(log_sf)
        hazard_sum -= log_sf
    hits = x.sum(axis=1) > problem.gamma
    n_hits = int(np.count_nonzero(hits))
    if n_hits == 0:
        return 0.0, 0.0, 0.0, 0, np.inf
    log_w = -n * math.log1p(-theta) - theta * hazard_sum[hits]
    _, *sums = _fsum_weighs(log_w)
    return (*sums, n_hits, float(np.min(hazard_sum[hits])))


def _full_inversion_pass_stats(problem, theta, cut, stream, start, stop):
    """`_pass_stats` without the survival cut."""
    return _full_inversion_chunk_stats(problem, theta, stream, start, stop)


def _fsum_weighs(log_w):
    """(t, s_1, s_2, s_4) of one chunk: t = max log w, and math.fsum of the
    shifted exps e = exp(log w - t), of their squares and of their fourth
    powers, each power formed as the core forms it."""
    t = float(np.max(log_w))
    e = np.exp(log_w - t)
    e2 = e * e
    return t, math.fsum(e), math.fsum(e2), math.fsum(e2 * e2)


# np.sum adds a chunk's at most 2^16 terms pairwise: blocks of 128 in eight
# running sums of 16, joined in 3 steps, then 9 halvings.  So each term is
# rounded at most 28 times, each by half an ulp of a partial sum at most
# the total, and fsum rounds once.  The core's stand-ins for shifted log
# weights below -170 add under 1e-69 of the sum.
SUM_ULPS = 28


def _assert_chunk_matches(c, r):
    """Chunk tuples (s_1, s_2, s_4, hits, min hazard sum): all but the sums
    equal, and each sum within SUM_ULPS of the reference's, which are
    shifted by the largest log weight."""
    assert c[3:] == r[3:], (c, r)
    for x, y in zip(c[:3], r[:3]):
        assert abs(x - y) <= SUM_ULPS * math.ulp(y), (c, r)


class TestSurvivalCut:
    def test_bit_identical_to_full_inversion(self, monkeypatch):
        # the hits and each chunk's least hazard sum keep their bits; the
        # sums, shifted by the top, lie within SUM_ULPS of fsum's
        # gamma from below the median (nearly every row kept) to deep tails
        rng = np.random.default_rng(2026)
        half = estimators.CHUNK_SIZE // 2  # the cases span one to four chunks
        # N >= 8 too, where numpy's row sum is pairwise, not left to right
        sizes = [k % 6 + 1 for k in range(40)] + list(range(8, 13))
        cases = []
        for k, size in enumerate(sizes):
            comps = [random_component(rng) for _ in range(size)]
            problem = SumProblem.from_db(comps, float(rng.uniform(-5.0, 40.0)))
            m = int(rng.integers(1, 2 * half))
            cases.append((problem, solve_pprime(problem).theta_star, m,
                          k % 2 + 1))
        # the strongest twist the estimators take, where nearly every row hits
        for k in range(2):
            comps = [random_component(rng) for _ in range(k + 2)]
            problem = SumProblem.from_db(comps, float(rng.uniform(-5.0, 40.0)))
            cases.append((problem, 1 - 1e-12, half + 7, k + 1))
        # untwisted, only the top few uniforms of each component reach gamma / N
        cases.append((weibull_pair(34.0), 0.0, 2 * half, 2))
        deep = len(cases)
        wb = Weibull(0.5, 1.0)
        for k, problem in enumerate([
                weibull_pair(55.0), weibull_pair(62.0),  # weights below e^-760
                SumProblem.from_db([Weibull(0.5, 3.0)] * 2, 30.0),
                # distinct cut words: of naive MC's three chunks here, the
                # second keeps no row
                SumProblem.from_db([wb, Weibull(0.5, 3.0)], 28.0),
                SumProblem.from_db([wb], 20.0),  # N = 1
                SumProblem.from_db([Lognormal.from_db(0.0, 6.0)], 25.0),
                weibull_pair(57.0)]):  # weights near e^-700
            cases.append((problem, solve_pprime(problem).theta_star,
                          (k + 1) * half + 7 * k, k % 2 + 1))
        # the least and largest log weight of each chunk the core weighs
        spans, weight_sums = [], estimators._weight_sums

        def spy(log_w, t):
            spans.append((log_w.min(), log_w.max()))
            return weight_sums(log_w, t)

        monkeypatch.setattr(estimators, "_weight_sums", spy)
        core = _equal_to_full_inversion(monkeypatch, cases)
        assert any(c[2] % estimators.CHUNK_SIZE for c in cases)
        assert {c[1] > 0.0 for c in cases} == {True, False}
        # chunks whose rows all lie within 170 of their top and chunks with
        # rows raised to that floor; chunks whose top weight is normal, and
        # chunks whose every weight would underflow to 0
        assert any(hi - lo <= 170.0 for lo, hi in spans)
        assert any(hi - lo > 170.0 for lo, hi in spans)
        assert any(hi > -700.0 for lo, hi in spans)
        assert any(hi < -760.0 for lo, hi in spans)
        # IS at 62 dB: every hit weighs 0, though its log tail is finite;
        # naive MC at 30 dB: no chunk hits
        is_62, naive_30 = core[2 * deep + 2], core[2 * deep + 5]
        assert is_62.hit_frequency > 0 and is_62.alpha_hat == 0.0
        assert is_62.log_alpha_hat > -math.inf
        assert naive_30.hit_frequency == 0


def _float_cut(theta, cut, words):
    """The survival test on floats that the word cut stands for."""
    return np.log1p(-uniforms_from_words(words)) / (1.0 - theta) < cut


class _Words:
    """A stream of given words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def words_at(self, offset, count):
        return self.words[offset:offset + count].copy()

    def uniforms_at(self, offset, count):
        return uniforms_from_words(self.words_at(offset, count))


# distinct laws, so distinct cut words
DISTINCT_PAIR = SumProblem.from_db([Weibull(0.5, 1.0), Weibull(0.5, 3.0)], 28.0)


class TestEmptyChunk:
    # naive MC of a deep threshold: a chunk of 2^16 rows expects 0.45,
    # 2.5e-5 and 8.5e-5 kept rows
    @pytest.mark.parametrize("problem", [
        lognormal_pair(30.0), weibull_pair(30.0),
        SumProblem.from_db(DISTINCT_PAIR.components, 34.0)],
        ids=["lognormal", "weibull", "distinct"])
    def test_chunk_keeping_no_row_does_no_work(self, monkeypatch, problem):
        m = estimators.CHUNK_SIZE
        cut = estimators._run_constants(problem, 0.0, m)
        assert cut and all(w > 0 for w in cut[0])
        below = min(cut[0]) - 1

        class Stream:
            """Every word just below the least cut word."""

            def words_at(self, offset, count):
                return np.full(count, below, dtype=np.uint64)

        def no_call(*args):
            raise AssertionError("an empty chunk did work")

        monkeypatch.setattr(estimators, "_log_sf", no_call)
        monkeypatch.setattr(Lognormal, "quantile_from_log_sf", no_call)
        monkeypatch.setattr(Weibull, "quantile_from_log_sf", no_call)
        # a full chunk and a ragged one
        for stop in (m, m - 3):
            stats = estimators._pass_stats(problem, 0.0, cut, Stream(), 0, stop)
            assert stats == (0.0, 0.0, 0.0, 0, math.inf)

    @pytest.mark.parametrize("theta", [0.0, 0.9])
    def test_chunks_near_the_cuts_equal_full_inversion(self, theta):
        cut = estimators._run_constants(DISTINCT_PAIR, theta, 64)
        (lo, (i,)), (hi, (j,)) = sorted(cut[0].items())
        assert lo < hi
        rows = np.zeros((64, 2), dtype=np.uint64)
        rows[:, j] = lo  # past the max, short of its own column's cut
        chunks = [rows.copy()]
        rows[5, j], rows[9, i] = hi, 2 ** 64 - 1  # two rows kept
        chunks.append(rows.copy())
        rows[:] = lo - 1  # every word below every cut
        chunks.append(rows)
        for rows in chunks:
            stream = _Words(rows.ravel())
            _assert_chunk_matches(
                estimators._pass_stats(DISTINCT_PAIR, theta, cut, stream, 0, 64),
                _full_inversion_chunk_stats(DISTINCT_PAIR, theta, stream, 0, 64))


def _subnormal(x):
    return (x != 0.0) & (np.abs(x) < np.finfo(float).tiny)


class _NormalOnly(np.ndarray):
    """Log weights on which every exp or product with a subnormal result
    fails the test."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        def base(x):
            return x.view(np.ndarray) if isinstance(x, _NormalOnly) else x

        if out is not None:
            kwargs["out"] = tuple(base(x) for x in out)
        result = getattr(ufunc, method)(*map(base, inputs), **kwargs)
        if ufunc in (np.exp, np.multiply):
            assert not _subnormal(np.asarray(result)).any(), ufunc.__name__
        return out[0] if out is not None else result


class TestWeights:
    def test_shifted_sums_match_fsum(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(-4000.0, 0.0, 300_000)
        # rows at the floor, 170 below a top, and just beside it
        edge = np.array([-170.0, np.nextafter(-170.0, -np.inf), np.nextafter(-170.0, np.inf)])
        beside = np.concatenate([[top, *(top + edge)] for top in (-700.0, -300.0, 0.0, 3.5)])
        arrays = [x, beside, x[x > -170.0], x[x < -760.0],
                  np.concatenate([x[:1000], beside, x[1000:2000]])]
        for log_w in arrays:
            cuts = np.sort(rng.integers(0, log_w.size + 1, 5))
            for a, b in [(0, log_w.size), *itertools.pairwise([0, *cuts, log_w.size])]:
                if b > a:  # a chunk without hits is never weighed
                    t, *ref = _fsum_weighs(log_w[a:b])
                    sums = estimators._weight_sums(log_w[a:b].copy(), t)
                    for got, want in zip(sums, ref, strict=True):
                        assert abs(got - want) <= SUM_ULPS * math.ulp(want)

    def test_each_chunk_shifted_by_its_own_top(self):
        # a top near e^-700 and one at e^-10 each scale their own chunk; in
        # the second the row 695 below its top adds less than half an ulp
        first, second = (estimators._weight_sums(np.array(log_w), log_w[0])
                         for log_w in ([-699.5, -705.0], [-10.0, -705.0]))
        e = float(np.exp(np.array([0.0, -5.5]))[1])  # numpy's exp, as the core's
        assert first == (1.0 + e, 1.0 + e * e, 1.0 + (e * e) ** 2)
        assert second == (1.0, 1.0, 1.0)

    def test_no_exp_or_product_is_subnormal(self, monkeypatch):
        # the Weibull(0.5, 1) pair at 55 dB, theta*: shifted log weights run
        # past -4000, and their exps, squares and fourth powers would span
        # the subnormal range, which numpy computes about 100 times slower
        problem = weibull_pair(55.0)
        theta = solve_pprime(problem).theta_star
        cut = estimators._run_constants(problem, theta, estimators.CHUNK_SIZE)
        seen, weight_sums = [], estimators._weight_sums

        def capture(log_w, t):
            seen.append((log_w.copy(), t))
            return weight_sums(log_w, t)

        monkeypatch.setattr(estimators, "_weight_sums", capture)
        estimators._pass_stats(problem, theta, cut, RandomStream(1), 0,
                               estimators.CHUNK_SIZE)
        (log_w, t), = seen
        shifted = log_w - t
        for k in (1, 2, 4):
            assert _subnormal(np.exp(k * shifted)).any()
        sums = weight_sums(log_w.copy().view(_NormalOnly), t)
        assert sums == weight_sums(log_w, t)

    def test_deep_tail_std_error_is_positive(self):
        # the Weibull(0.5, 1) pair at theta*: w^2 underflows from 51.5 dB
        # on, but the shifted sums keep the standard error with alpha_hat
        problem = weibull_pair(55.0)
        r = is_estimate(problem, solve_pprime(problem).theta_star, 500_000, 1)
        assert r.std_error > 0.0 and r.second_moment_weight == 0.0
        assert abs(r.alpha_hat - WB_PAIR_TAIL_55DB) <= 5.0 * r.std_error

    @pytest.mark.parametrize("problem", [
        *(weibull_pair(db) for db in np.arange(45.0, 52.5, 0.5).tolist()),
        lognormal_pair(30.0)],
        ids=[*(f"weibull-{db:g}dB" for db in np.arange(45.0, 52.5, 0.5)), "lognormal-30dB"])
    def test_log_alpha_hat_matches_alpha_hat(self, problem):
        # 4 ulps of the log: floats near -400 are 5.7e-14 apart, so exp of
        # the float nearest log alpha_hat can miss it by a few hundred ulps
        for theta in (0.0, solve_pprime(problem).theta_star):
            r = is_estimate(problem, theta, 100_000, 1)
            if r.hit_frequency == 0:
                assert (r.alpha_hat, r.log_alpha_hat) == (0.0, -math.inf)
                continue
            assert r.alpha_hat >= np.finfo(float).tiny
            assert (abs(r.log_alpha_hat - math.log(r.alpha_hat))
                    <= 4 * math.ulp(r.log_alpha_hat))


class TestWordCut:
    @pytest.mark.parametrize("theta", [0.0, 0.1378, 0.5, 0.8, 0.9731, 1 - 1e-12])
    def test_equals_float_test(self, theta):
        rng = np.random.default_rng(int(theta * 1e4))
        # one Weibull(1, b) component per cut, log S(edge) = -edge / b
        target = -np.logspace(-18.0, math.log10(160.0), 60)
        gamma = 60.0
        edge = gamma * (1.0 - 1e-9) / target.size
        problem = SumProblem([Weibull(1.0, edge / -c) for c in target], gamma)
        cuts = [float(c.log_survival(edge)) for c in problem.components]
        # each column that can pass the word cut -> its cut word
        columns = estimators._run_constants(problem, theta, 1)[0]
        least = {i: w for w, cols in columns.items() for i in cols}
        top = (1 << 53) - 1
        largest = np.array([2 ** 64 - 1], dtype=np.uint64)
        for i, cut in enumerate(cuts):
            # reachable iff the largest word passes the float test
            assert (i in least) == _float_cut(theta, cut, largest)[0]
            if i not in least:
                continue
            k0 = int(least[i]) >> 11
            # kept indexes the float test fails: the 1e-12 slack, plus 2
            # for the 2^-53 slack and the ceiling, 0.8 for 1 + 1e-12 in
            # binary and 1 for the rounding of S(edge)^(1 - theta)
            slack = 1e-12 * math.exp((1.0 - theta) * cut) * 2.0 ** 53 + 4
            k = np.arange(max(k0 - 50, 0), min(k0 + int(slack) + 50, top) + 1,
                          dtype=np.uint64)
            low = rng.integers(0, 2048, k.size, dtype=np.uint64)
            words = np.concatenate([
                (k << np.uint64(11)) | low,
                rng.integers(0, 2 ** 64 - 1, 1000, dtype=np.uint64,
                             endpoint=True)])
            passes = _float_cut(theta, cut, words)
            # every word the float test passes is kept
            assert np.all(words[passes] >= least[i])
            near = passes[:k.size]
            assert near.any() and int(k[near][0]) - k0 <= slack
        # the cuts span always-kept, boundary and unreachable components
        if theta == 0.0:
            assert 0 < len(least) < len(cuts)
            assert least[0] == 0

    def test_one_survival_per_distinct_law(self, monkeypatch):
        other = Lognormal.from_db(1.0, 6.0)
        problem = SumProblem.from_db([LN6, other, LN6, LN6], 30.0)
        edge = problem.gamma * (1.0 - 1e-9) / problem.n
        # each component's own S(edge), as the cut took it before
        cut = np.array([c.log_survival(edge) for c in problem.components])
        reachable = estimators._log_sf(
            np.full(cut.shape, 2 ** 64 - 1, dtype=np.uint64), 0.5) < cut
        least = estimators.least_word(
            1.0 - (1.0 + 1e-12) * np.exp(0.5 * cut) - 2.0 ** -53)
        calls, inner = [], Lognormal.log_survival

        def spy(self, x):
            calls.append(self)
            return inner(self, x)

        monkeypatch.setattr(Lognormal, "log_survival", spy)
        columns = estimators._run_constants(problem, 0.5, 100)[0]
        assert calls == [LN6, other]
        assert all(reachable) and least[0] != least[1]
        assert least[0] == least[2] == least[3]
        assert columns == {least[0]: [0, 2, 3], least[1]: [1]}

    def test_unreachable_run_draws_nothing(self, monkeypatch):
        # Weibull(0.5, 1) pair at 40 dB: each component must pass 5,000,
        # survival exp(-70.7), beyond any uniform's reach unless the twist
        # is strong
        problem = weibull_pair(40.0)
        m = 3 * estimators.CHUNK_SIZE + 5
        for theta in (0.0, 0.3):
            # inverting every row agrees: nothing reaches gamma
            ref = _full_inversion_chunk_stats(
                problem, theta, RandomStream(3, 1), 0, m)
            assert ref[3] == 0

        def no_draw(self, offset, count):
            raise AssertionError("an unreachable run drew words")

        monkeypatch.setattr(RandomStream, "words_at", no_draw)
        for theta in (0.0, 0.3):
            r = is_estimate(problem, theta, m, 3, stream_id=1, workers=2)
            assert r == EstimateResult(
                alpha_hat=0.0, log_alpha_hat=-math.inf, sample_count=m, hit_frequency=0,
                second_moment_weight=0.0, std_error=0.0, second_moment_std_error=0.0,
                theta_used=theta, min_hazard_sum_hit=math.inf)


def _equal_to_full_inversion(monkeypatch, cases):
    """Assert that the core's chunk tuples on (problem, theta, m, workers)
    cases, IS then naive, match those of inverting every row; return the
    core's results."""
    def run_all(pass_stats):
        out, chunks = [], {}

        def spy(problem, theta, cut, stream, start, stop):
            stats = pass_stats(problem, theta, cut, stream, start, stop)
            chunks[len(out), start] = stats
            return stats

        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_pass_stats", spy)
            for k, (problem, theta, m, workers) in enumerate(cases):
                out.append(is_estimate(problem, theta, m, k, workers=workers))
                out.append(naive_mc(problem, m, k, stream_id=1, workers=workers))
        return out, chunks

    core, core_chunks = run_all(estimators._pass_stats)
    reference, reference_chunks = run_all(_full_inversion_pass_stats)
    assert core_chunks.keys() == reference_chunks.keys()
    for key, stats in core_chunks.items():
        _assert_chunk_matches(stats, reference_chunks[key])
    for c, r in zip(core, reference, strict=True):
        assert (c.hit_frequency, c.min_hazard_sum_hit) == (
            r.hit_frequency, r.min_hazard_sum_hit)
    return core


def _kept_words(problem, theta, m, seed):
    """Rows of stream 0 of seed that pass the run's word cut."""
    words = RandomStream(seed).words_at(0, problem.n * m).reshape(-1, problem.n)
    keep = np.zeros(m, dtype=bool)
    for w, cols in estimators._run_constants(problem, theta, m)[0].items():
        for i in cols:
            keep |= words[:, i] >= w
    return words[keep]


def _kept_rows(problem, theta, m, seed):
    return len(_kept_words(problem, theta, m, seed))


def _open_rows(problem, theta, m, seed):
    """Kept rows of stream 0 of seed that the run's tables leave undecided,
    or every kept row of a sum without tables."""
    words = _kept_words(problem, theta, m, seed)
    _, shift, tables = estimators._run_constants(problem, theta, m)
    if not tables:
        return len(words)
    bucket = (words >> shift).astype(np.intp)
    lo = sum(tables[c][bucket[:, i]] for i, c in enumerate(problem.components))
    hi = sum(tables[c][bucket[:, i] + 1] for i, c in enumerate(problem.components))
    gamma = problem.gamma
    return int(np.count_nonzero(
        (lo <= gamma * (1.0 + 1e-9)) & (hi > gamma * (1.0 - 1e-9))))


def _column_calls(monkeypatch):
    """Per pass of a run, the sizes of the arrays given to `_log_sf` and to
    any law's quantile_from_log_sf, call by call.  The calls before the
    first pass build the run's cut and tables and are not counted."""
    passes = []

    def spy(inner, key, arg):
        def call(*args):
            if passes:
                passes[-1][key].append(np.size(args[arg]))
            return inner(*args)
        return call

    def pass_spy(*args):
        passes.append({"log_sf": [], "quantile": []})
        return inner_pass(*args)

    inner_pass = estimators._pass_stats
    monkeypatch.setattr(estimators, "_pass_stats", pass_spy)
    monkeypatch.setattr(estimators, "_log_sf", spy(estimators._log_sf, "log_sf", 0))
    for cls in (Lognormal, Weibull):
        monkeypatch.setattr(cls, "quantile_from_log_sf",
                            spy(cls.quantile_from_log_sf, "quantile", 1))
    return passes


def _count_quantile_values(monkeypatch, cls):
    """Sizes of the arrays passed to cls.quantile_from_log_sf, call by call."""
    sizes = []
    inner = cls.quantile_from_log_sf

    def spy(self, log_sf):
        sizes.append(np.size(log_sf))
        return inner(self, log_sf)

    monkeypatch.setattr(cls, "quantile_from_log_sf", spy)
    return sizes


LN6 = Lognormal.from_db(0.0, 6.0)


class TestQuantileTable:
    def test_tiny_table_equals_full_inversion(self, monkeypatch):
        # 4 buckets: at 20 dB nearly every kept lognormal row is left near
        # gamma and inverted exactly; at -5 dB most are sure hits
        monkeypatch.setattr(estimators, "_bucket_bits", lambda m: 2)
        problems = [
            lognormal_pair(20.0), lognormal_pair(-5.0),
            SumProblem.from_db([Weibull(0.5, 1.0), LN6, Lognormal(0.5, 1.2)], 15.0),
            SumProblem.from_db([LN6, Weibull(0.4, 2.0)], 30.0),
            weibull_pair(20.0),
        ]
        cases = []
        for k, problem in enumerate(problems):
            theta = solve_pprime(problem).theta_star
            m = estimators.CHUNK_SIZE + 1000 * k + 7  # a ragged last chunk
            cases += [(problem, theta, m, 1), (problem, theta, m, 2)]
        core = _equal_to_full_inversion(monkeypatch, cases)
        assert all(r.hit_frequency for r in core[::2])

    def test_lognormal_pair_inverts_few_rows(self, monkeypatch):
        problem = lognormal_pair(30.0)
        theta = solve_pprime(problem).theta_star
        m = 2 * estimators.CHUNK_SIZE
        table = (1 << estimators._bucket_bits(m)) + 1
        sizes = _count_quantile_values(monkeypatch, Lognormal)
        is_estimate(problem, theta, m, 5)
        assert sizes[0] == table
        assert sum(sizes[1:]) <= 0.02 * _kept_rows(problem, theta, m, 5)

    def test_identical_laws_share_one_table(self, monkeypatch):
        problem = SumProblem.from_db([LN6] * 64, 40.0)
        m = estimators.CHUNK_SIZE + 5
        sizes = _count_quantile_values(monkeypatch, Lognormal)
        r = is_estimate(problem, 0.9, m, 2)  # theta* is 0 here
        assert r.hit_frequency > 0
        # one table, then one exact call per column and chunk: a full chunk
        # and a ragged second
        assert sizes[0] == (1 << estimators._bucket_bits(m)) + 1
        assert len(sizes) == 1 + 64 * 2

    @pytest.mark.parametrize("problem", [
        lognormal_pair(30.0),
        SumProblem.from_db([Weibull(0.5, 1.0), LN6], 20.0),
        weibull_pair(20.0)], ids=["lognormal", "mixed", "weibull"])
    def test_one_column_loop_per_pass(self, monkeypatch, problem):
        # each column's log survival is formed once a pass, on every kept
        # row, and inverted on the open rows alone
        theta = solve_pprime(problem).theta_star
        m = 2 * estimators.CHUNK_SIZE + 11  # three chunks, the last ragged
        kept = _kept_rows(problem, theta, m, 5)
        opened = _open_rows(problem, theta, m, 5)
        passes = _column_calls(monkeypatch)
        is_estimate(problem, theta, m, 5)
        assert len(passes) == 3
        for calls in passes:
            assert len(calls["log_sf"]) == problem.n
            assert len(set(calls["log_sf"])) == 1
            assert len(calls["quantile"]) == problem.n
            assert len(set(calls["quantile"])) == 1
        assert sum(sum(c["log_sf"]) for c in passes) == problem.n * kept
        assert sum(sum(c["quantile"]) for c in passes) == problem.n * opened
        if any(law.family == "lognormal" for law in problem.laws):
            assert opened <= 0.02 * kept

    def test_weibull_pair_builds_no_table(self, monkeypatch):
        problem = weibull_pair(20.0)
        theta = solve_pprime(problem).theta_star
        m = 2 * estimators.CHUNK_SIZE + 11
        sizes = _count_quantile_values(monkeypatch, Weibull)
        lognormal = _count_quantile_values(monkeypatch, Lognormal)
        is_estimate(problem, theta, m, 5)
        assert lognormal == []
        # each kept row inverted once per column, as by the table-free core,
        # in three chunks, the last ragged
        assert sum(sizes) == 2 * _kept_rows(problem, theta, m, 5)
        assert len(sizes) == 2 * 3

    def test_mixed_pair_brackets_its_weibull_column(self, monkeypatch):
        problem = SumProblem.from_db([Weibull(0.5, 1.0), LN6], 20.0)
        theta = solve_pprime(problem).theta_star
        m = 2 * estimators.CHUNK_SIZE + 11
        kept = _kept_rows(problem, theta, m, 5)
        sizes = _count_quantile_values(monkeypatch, Weibull)
        is_estimate(problem, theta, m, 5)
        # the table's edges, then one near-row array per chunk, the last
        # ragged
        assert sizes[0] == (1 << estimators._bucket_bits(m)) + 1
        assert len(sizes) == 1 + 3
        assert sum(sizes[1:]) <= 0.02 * kept
        # inverting every kept row's Weibull column took `kept` values
        assert sum(sizes) <= 0.1 * kept

    @pytest.mark.parametrize("problem", [
        weibull_pair(20.0),
        SumProblem.from_db([Weibull(0.5, 1.0), Weibull(0.4, 2.0)], 20.0)],
        ids=["pair", "distinct"])
    def test_weibull_sum_evaluates_no_edge(self, monkeypatch, problem):
        def no_call(*args):
            raise AssertionError("a Weibull-only sum evaluated a table value")

        monkeypatch.setattr(estimators, "_log_sf", no_call)
        monkeypatch.setattr(Weibull, "quantile_from_log_sf", no_call)
        m = 2 * estimators.CHUNK_SIZE + 11
        shift, tables = estimators._quantile_tables(problem, 0.8, m)
        assert tables == {}
        assert int(shift) == 64 - estimators._bucket_bits(m)

    def test_table_ends_at_inf(self, monkeypatch):
        # at the strongest twist the greatest words' quantiles overflow
        theta, m = 1 - 1e-12, estimators.CHUNK_SIZE + 9
        cases = []
        for problem in (lognormal_pair(20.0),
                        SumProblem.from_db([Weibull(0.5, 1.0), LN6], 20.0)):
            _, tables = estimators._quantile_tables(problem, theta, m)
            assert np.isinf(tables[LN6]).any()
            assert not np.isinf(tables[LN6][:-1]).all()
            cases += [(problem, theta, m, 1), (problem, theta, m, 2)]
        _equal_to_full_inversion(monkeypatch, cases)


class TestBucketEdges:
    # the computed quantile is not monotone to the last bit: a word's
    # quantile can pass its bucket's edge values by a few ulps, which the
    # core's 1e-9 margins cover; 1e-12 is the slack allowed here
    SLACK = 1.0 + 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 8, 12])
    def test_edges_bracket_the_core_quantile(self, monkeypatch, bits):
        rng = np.random.default_rng(bits)
        laws = [Lognormal.from_db(rng.uniform(-10.0, 10.0), sigma_db)
                for sigma_db in np.linspace(1.0, 12.0, 20)]
        # a sum with a lognormal law tables its Weibull laws too
        laws += [Weibull(shape, scale) for shape, scale in zip(
            np.geomspace(1e-9, 0.99, 12),
            rng.permutation(np.geomspace(1e-3, 37.0, 12)))]
        problem = SumProblem(laws, 1.0)
        monkeypatch.setattr(estimators, "_bucket_bits", lambda m: bits)
        least = np.arange(1 << bits, dtype=np.uint64) << np.uint64(64 - bits)
        words = np.concatenate([
            least, least + np.uint64((1 << (64 - bits)) - 1),
            rng.integers(0, 2 ** 64 - 1, 5000, dtype=np.uint64, endpoint=True)])
        for theta in (0.0, float(rng.uniform(0.0, 0.99)), 1 - 1e-12):
            shift, tables = estimators._quantile_tables(problem, theta, 1)
            assert int(shift) == 64 - bits and set(tables) == set(laws)
            log_sf = estimators._log_sf(words, theta)
            b = (words >> shift).astype(np.intp)
            for law in laws:
                table = tables[law]
                assert table.shape == ((1 << bits) + 1,)
                q = law.quantile_from_log_sf(log_sf)
                assert np.all(table[b] <= q * self.SLACK), (law, theta)
                assert np.all(q <= table[b + 1] * self.SLACK), (law, theta)


class TestBoundCertificate:
    def test_worst_hit_weight_below_certificate(self):
        for problem in (weibull_pair(20.0), lognormal_pair(20.0)):
            sol = solve_pprime(problem)
            r = is_estimate(problem, sol.theta_star, 200_000, 31)
            cert = log_weight(sol.theta_star, sol.objective, problem.n)
            assert (log_weight(sol.theta_star, r.min_hazard_sum_hit, problem.n)
                    <= cert + 1e-12)
            assert r.min_hazard_sum_hit >= sol.objective - 1e-9

    def test_empirical_second_moment_below_bound(self):
        problem = weibull_pair(25.0)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 200_000, 8)
        assert r.second_moment_weight <= sol.second_moment_bound

    @pytest.mark.parametrize("problem", [
        weibull_pair(20.0), lognormal_pair(20.0),
        SumProblem.from_db([Weibull(0.5, 1.0), LN6], 20.0),
        SumProblem.from_db([LN6] * 3, 15.0)],
        ids=["weibull", "lognormal", "mixed", "lognormal-3"])
    def test_hit_extremes_are_one_statistic(self, monkeypatch, problem):
        # a log weight is -N log1p(-theta) - theta * its hazard sum, rounded
        # monotonely, so each chunk's shift, the log weight of its least
        # hazard sum, is its largest log weight, bit for bit
        m = 3 * estimators.CHUNK_SIZE + 5
        shifts, weight_sums = [], estimators._weight_sums

        def spy(log_w, t):
            shifts.append((t, float(log_w.max())))
            return weight_sums(log_w, t)

        monkeypatch.setattr(estimators, "_weight_sums", spy)
        for theta in (0.0, 0.5, solve_pprime(problem).theta_star, 0.9):
            for workers in (1, 2):
                shifts.clear()
                r = is_estimate(problem, theta, m, 12, workers=workers)
                assert r.hit_frequency > 0 and shifts
                for t, top in shifts:
                    assert t.hex() == top.hex()


class TestOptimalityRatio:
    # the ratio log m2 / log alpha_hat of acceptance criterion 8

    def test_naive_is_one(self, single_weibull_gamma4):
        # naive weights are the hit indicator itself, so m2 = alpha_hat
        r = naive_mc(single_weibull_gamma4, 10_000, 2)
        assert 0.0 < r.alpha_hat < 1.0
        assert math.log(r.second_moment_weight) / math.log(r.alpha_hat) == 1.0

    def test_perfect_is_two(self):
        # m2 >= alpha_hat^2, with equality only at zero variance, so the
        # ratio stays below the 2 of a perfect estimator
        problem = weibull_pair(20.0)
        r = is_estimate(problem, solve_pprime(problem).theta_star, 10_000, 2)
        ratio = math.log(r.second_moment_weight) / math.log(r.alpha_hat)
        assert 1.0 < ratio < 2.0


class TestResultRecord:
    def test_value_fields(self, single_weibull_gamma4):
        r = naive_mc(single_weibull_gamma4, 100, 0, stream_id=3)
        assert (r.sample_count, r.theta_used) == (100, 0.0)
        assert r.alpha_hat == r.hit_frequency / 100
        # a pure value: a rerun is equal, a different stream is not
        assert r == naive_mc(single_weibull_gamma4, 100, 0, stream_id=3)
        assert r != naive_mc(single_weibull_gamma4, 100, 0, stream_id=4)


def _kept_of_rows(problem, cut, stream, start, stop):
    """How many rows of [start, stop) pass the word cut, and of how many."""
    words = stream.words_at(start * problem.n, (stop - start) * problem.n)
    words = words.reshape(-1, problem.n)
    keep = np.zeros(words.shape[0], dtype=bool)
    for w, cols in cut[0].items():
        for i in cols:
            keep |= words[:, i] >= w
    return int(np.count_nonzero(keep)), words.shape[0]


class TestTwoChunkPass:
    """Two chunks side by side in one stream, each one pass."""

    SIZE = 64  # rows a chunk, so that blocks can be written word by word

    @pytest.mark.parametrize("problem", [
        weibull_pair(20.0), lognormal_pair(20.0),
        SumProblem.from_db([Weibull(0.5, 1.0)], 20.0),
        SumProblem.from_db([LN6], 20.0),
        SumProblem.from_db([Weibull(0.5, 1.0), LN6], 20.0)],
        ids=["weibull-pair", "lognormal-pair", "weibull", "lognormal", "mixed"])
    def test_each_chunk_as_if_alone(self, monkeypatch, problem):
        size, n = self.SIZE, problem.n
        monkeypatch.setattr(estimators, "CHUNK_SIZE", size)
        seen = set()
        for theta in (0.0, solve_pprime(problem).theta_star):
            cut = estimators._run_constants(problem, theta, 2 * size)
            least = np.zeros(n, dtype=np.uint64)
            for w, cols in cut[0].items():
                least[cols] = w
            assert least.min() > 0
            random = RandomStream(11).words_at(0, 3 * size * n).reshape(-1, n)
            at_cut = np.zeros((size, n), dtype=np.uint64)
            at_cut[np.arange(size), np.arange(size) % n] = least[np.arange(size) % n]
            none = np.full((size, n), least.min() - 1, dtype=np.uint64)
            blocks = {
                "none": none,
                "random": random[:size],
                "at-cut": at_cut,  # each row one column at its cut word
                "half-at-cut": np.where(np.arange(size)[:, None] % 2, none, at_cut),
                "all": np.full((size, n), 2 ** 64 - 1, dtype=np.uint64),
            }
            seconds = {**blocks, "random-2": random[size:2 * size],
                       "ragged": random[2 * size:2 * size + 37]}
            for (a, first), (b, second) in itertools.product(blocks.items(),
                                                             seconds.items()):
                stream = _Words(np.concatenate([first, second]).ravel())
                stop = size + second.shape[0]
                chunks = [(0, size), (size, stop)]
                two = [estimators._pass_stats(problem, theta, cut, stream, lo, hi)
                       for lo, hi in chunks]
                alone = [estimators._pass_stats(problem, theta, cut, _Words(block.ravel()),
                                                0, block.shape[0])
                         for block in (first, second)]
                assert two == alone, (a, b, theta)
                for chunk, (lo, hi) in zip(two, chunks):
                    _assert_chunk_matches(chunk, _full_inversion_chunk_stats(
                        problem, theta, stream, lo, hi))
                    kept, rows = _kept_of_rows(problem, cut, stream, lo, hi)
                    seen.add(("kept", kept == 0, kept == rows, chunk[3] == 0))
                seen.add(("ragged", stop % size > 0))
                seen.add(("theta", theta > 0.0))
        # chunks that keep no row, keep some and keep all, with and without
        # hits, beside one another, at a ragged end and at theta 0 and theta*
        assert {("kept", True, False, True), ("kept", False, False, True),
                ("kept", False, False, False), ("kept", False, True, True),
                ("kept", False, True, False), ("ragged", True),
                ("theta", False), ("theta", True)} <= seen


class TestHitLaw:
    # for N = 1, A = Lambda(gamma) and theta* = 1 - 1 / A, so the twisted
    # law puts P(X > gamma) = exp(-(1 - theta*) A) = 1/e at every threshold
    @pytest.mark.parametrize("law", [Weibull(0.5, 1.0), LN6],
                             ids=["weibull", "lognormal"])
    @pytest.mark.parametrize("gamma_db", [20.0, 40.0, 60.0])
    def test_single_law_hits_one_in_e(self, law, gamma_db):
        problem = SumProblem.from_db([law], gamma_db)
        sol = solve_pprime(problem)
        assert sol.objective > 1.0 and sol.theta_star > 0.0
        m, p = 100_000, math.exp(-1.0)
        r = is_estimate(problem, sol.theta_star, m, 7)
        assert abs(r.hit_frequency - m * p) <= 5.0 * math.sqrt(m * p * (1.0 - p))

    # every {X_i > gamma} lies in {S > gamma}, so IS at theta hits with
    # probability at least p_lo = 1 - prod_i (1 - exp(-(1 - theta) Lambda_i(gamma)))
    @pytest.mark.parametrize("law, gamma_db", [(Weibull(0.5, 1.0), 30.0), (LN6, 40.0)],
                             ids=["weibull", "lognormal"])
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_identical_laws_hit_at_least_the_floor(self, law, gamma_db, n):
        problem = SumProblem.from_db([law] * n, gamma_db)
        theta = solve_pprime(problem).theta_star
        assert theta > 0.0
        hazards = [float(c.hazard_function(problem.gamma)) for c in problem.components]
        p_lo = -math.expm1(math.fsum(math.log1p(-math.exp(-(1.0 - theta) * h))
                                     for h in hazards))
        assert math.exp(estimators.log_big_jump(problem, theta)) == pytest.approx(
            p_lo, rel=1e-14)
        m = math.ceil(200.0 / p_lo)  # about 200 hits at the floor
        r = is_estimate(problem, theta, m, 7)
        assert r.hit_frequency >= m * p_lo - 5.0 * math.sqrt(m * p_lo * (1.0 - p_lo))

    # where every q_i = S_i(gamma)^(1 - theta) is below 2^-53, p_lo is their
    # sum to double precision, also where a q_i underflows in linear space
    @pytest.mark.parametrize("laws, gamma_db, theta", [
        ([Weibull(0.5, 1.0), LN6, LN6], 60.0, 0.2),
        ([Weibull(0.5, 1.0)] * 2, 70.0, 0.0)], ids=["mixed", "underflow"])
    def test_big_jump_floor_in_log_space(self, laws, gamma_db, theta):
        problem = SumProblem.from_db(laws, gamma_db)
        log_q = [(1.0 - theta) * float(c.log_survival(problem.gamma)) for c in laws]
        assert min(log_q) < -745.0  # exp(log q) is 0
        top = max(log_q)
        expected = top + math.log(math.fsum(math.exp(x - top) for x in log_q))
        assert estimators.log_big_jump(problem, theta) == pytest.approx(expected, rel=1e-14)
