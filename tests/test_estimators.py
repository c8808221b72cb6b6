import math

import numpy as np
import pytest

from hrtwist import (
    Lognormal,
    ParameterError,
    SumProblem,
    Weibull,
    efficiency_indicator,
    is_estimate,
    naive_mc,
    relative_error_is,
    relative_error_naive,
    solve_pprime,
)
from hrtwist import RandomStream, estimators
from hrtwist.estimators import EstimateResult
from hrtwist.streams import uniforms_from_words

from conftest import lognormal_pair, random_component, weibull_pair


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
        assert r.variance_weight == pytest.approx(expect, rel=1e-12)

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


class TestDeterminism:
    def test_bit_identical_repeats(self):
        problem = lognormal_pair(25.0)
        a = is_estimate(problem, 0.8, 70_000, 2024)
        b = is_estimate(problem, 0.8, 70_000, 2024)
        assert a == b

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_worker_count_irrelevant(self, workers):
        problem = weibull_pair(20.0)
        serial = is_estimate(problem, 0.8, 100_000, 55, workers=1)
        parallel = is_estimate(problem, 0.8, 100_000, 55, workers=workers)
        assert serial == parallel

    def test_seed_changes_result(self):
        problem = weibull_pair(20.0)
        a = is_estimate(problem, 0.8, 10_000, 1)
        b = is_estimate(problem, 0.8, 10_000, 2)
        assert a.alpha_hat != b.alpha_hat


def _full_inversion_chunk_stats(problem, theta, cut, stream, start, stop):
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
        return 0.0, 0.0, 0.0, 0, -np.inf, np.inf
    if theta == 0.0:
        return (float(n_hits), float(n_hits), float(n_hits), n_hits, 0.0,
                float(np.min(hazard_sum[hits])))
    log_w = -n * math.log1p(-theta) - theta * hazard_sum[hits]
    w = np.exp(log_w)
    return (float(np.sum(w)), float(np.sum(w * w)), float(np.sum((w * w) ** 2)),
            n_hits, float(np.max(log_w)), float(np.min(hazard_sum[hits])))


class TestSurvivalCut:
    def test_bit_identical_to_full_inversion(self, monkeypatch):
        # gamma from below the median (nearly every row kept) to deep tails
        rng = np.random.default_rng(2026)
        # N >= 8 too, where numpy's row sum is pairwise, not left to right
        sizes = [k % 6 + 1 for k in range(40)] + list(range(8, 13))
        cases = []
        for k, size in enumerate(sizes):
            comps = [random_component(rng) for _ in range(size)]
            problem = SumProblem.from_db(comps, float(rng.uniform(-5.0, 40.0)))
            m = int(rng.integers(1, 2 * estimators.CHUNK_SIZE))
            cases.append((problem, solve_pprime(problem).theta_star, m,
                          k % 2 + 1))
        # the strongest twist the estimators take, where nearly every row hits
        for k in range(2):
            comps = [random_component(rng) for _ in range(k + 2)]
            problem = SumProblem.from_db(comps, float(rng.uniform(-5.0, 40.0)))
            cases.append((problem, 1 - 1e-12, estimators.CHUNK_SIZE + 7, k + 1))
        # untwisted, only the top few uniforms of each component reach gamma / N
        cases.append((weibull_pair(34.0), 0.0, 2 * estimators.CHUNK_SIZE, 2))

        def run_all():
            out = []
            for k, (problem, theta, m, workers) in enumerate(cases):
                out.append(is_estimate(problem, theta, m, k, workers=workers))
                out.append(naive_mc(problem, m, k, stream_id=1,
                                    workers=workers))
            return out

        with_cut = run_all()
        monkeypatch.setattr(estimators, "_chunk_stats",
                            _full_inversion_chunk_stats)
        assert run_all() == with_cut
        assert any(c[2] % estimators.CHUNK_SIZE for c in cases)
        assert {c[1] > 0.0 for c in cases} == {True, False}


def _float_cut(theta, cut, words):
    """The survival test on floats that the word cut stands for."""
    return np.log1p(-uniforms_from_words(words)) / (1.0 - theta) < cut


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
        least = dict(estimators._word_cuts(problem, theta))
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

    def test_unreachable_run_draws_nothing(self, monkeypatch):
        # Weibull(0.5, 1) pair at 40 dB: each component must pass 5,000,
        # survival exp(-70.7), beyond any uniform's reach unless the twist
        # is strong
        problem = weibull_pair(40.0)
        m = 3 * estimators.CHUNK_SIZE + 5
        for theta in (0.0, 0.3):
            # inverting every row agrees: nothing reaches gamma
            ref = _full_inversion_chunk_stats(
                problem, theta, None, RandomStream(3, 1), 0, m)
            assert ref[3] == 0

        def no_draw(self, offset, count):
            raise AssertionError("an unreachable run drew words")

        monkeypatch.setattr(RandomStream, "words_at", no_draw)
        for theta in (0.0, 0.3):
            r = is_estimate(problem, theta, m, 3, stream_id=1, workers=2)
            assert r == EstimateResult(
                alpha_hat=0.0, sample_count=m, hit_frequency=0,
                second_moment_weight=0.0, fourth_moment_weight=0.0,
                variance_weight=0.0, std_error=0.0, theta_used=theta, max_log_weight_hit=-math.inf,
                min_hazard_sum_hit=math.inf)


class TestBoundCertificate:
    def test_worst_hit_weight_below_certificate(self):
        for problem in (weibull_pair(20.0), lognormal_pair(20.0)):
            sol = solve_pprime(problem)
            r = is_estimate(problem, sol.theta_star, 200_000, 31)
            cert = (-problem.n * math.log1p(-sol.theta_star)
                    - sol.theta_star * sol.objective)
            assert r.max_log_weight_hit <= cert + 1e-12
            assert r.min_hazard_sum_hit >= sol.objective - 1e-9

    def test_empirical_second_moment_below_bound(self):
        problem = weibull_pair(25.0)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 200_000, 8)
        assert r.second_moment_weight <= sol.second_moment_bound


class TestRelativeErrors:
    def test_naive_formula(self):
        # C sqrt(alpha (1-alpha)) / (sqrt(M) alpha) at alpha = 1/2
        assert relative_error_naive(0.5, 10_000) == pytest.approx(0.0196, abs=1e-4)

    def test_naive_rare_event_limit(self):
        # for small alpha this is about C / sqrt(M alpha)
        v = relative_error_naive(1e-4, 10 ** 8)
        assert v == pytest.approx(1.96 / math.sqrt(10 ** 8 * 1e-4), rel=1e-3)

    def test_hundred_over_alpha_heuristic(self):
        # 10% relative accuracy at confidence 1 needs M > 100 / alpha
        alpha = 1e-9
        m = 100.0 / alpha
        assert relative_error_naive(alpha, int(m), 1.0) == pytest.approx(
            0.1, rel=1e-3)

    def test_naive_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ParameterError):
                relative_error_naive(bad, 100)

    def test_is_zero_variance(self):
        p = SumProblem((Weibull(0.5, 1.0),), 1e-300)
        r = is_estimate(p, 0.0, 100, 0)
        assert r.variance_weight == 0.0
        assert relative_error_is(r) == 0.0

    def test_is_matches_naive_at_zero_twist(self, single_weibull_gamma4):
        r = is_estimate(single_weibull_gamma4, 0.0, 50_000, 4)
        expect = 1.96 * math.sqrt(r.variance_weight) / (
            math.sqrt(r.sample_count) * r.alpha_hat)
        assert relative_error_is(r) == pytest.approx(expect, rel=1e-12)


class TestEfficiency:
    def test_no_gain_when_variance_is_bernoulli(self):
        alpha = 0.01
        assert efficiency_indicator(alpha, alpha * (1 - alpha)) == pytest.approx(
            1.0, rel=1e-12)

    def test_zero_variance_sentinel(self):
        assert efficiency_indicator(0.5, 0.0) == math.inf

    def test_gain_above_one_for_tuned_twist(self):
        problem = lognormal_pair(25.0)
        sol = solve_pprime(problem)
        r = is_estimate(problem, sol.theta_star, 100_000, 6)
        k = efficiency_indicator(r.alpha_hat, r.variance_weight)
        assert k > 1.0


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
