import math

import numpy as np
import pytest

from hrtwist import (
    Lognormal,
    ParameterError,
    SumProblem,
    Weibull,
    second_moment_bound,
    solve_pprime,
    theta_star,
)

from conftest import (
    LN_PAIR_A_20DB,
    LN_PAIR_THETA_20DB,
    lognormal_pair,
    random_component,
    weibull_pair,
)
from grid_oracle import grid_oracle_pprime


class TestSumProblem:
    def test_db_round_trip(self):
        p = SumProblem.from_db((Weibull(0.5, 1.0),), 20.0)
        assert p.gamma == pytest.approx(100.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SumProblem((), 1.0)
        with pytest.raises(ParameterError):
            SumProblem((Weibull(0.5, 1.0),), -1.0)
        with pytest.raises(ParameterError):
            SumProblem((Weibull(0.5, 1.0),), math.inf)

    def test_gamma_must_be_normal(self):
        # a subnormal gamma / N rounds to 0 in the sampling core's cut
        tiny = np.finfo(float).tiny
        assert SumProblem((Weibull(0.5, 1.0),) * 3, tiny).gamma == tiny
        for gamma in (5e-324, tiny / 2.0):
            with pytest.raises(ParameterError):
                SumProblem((Weibull(0.5, 1.0),) * 3, gamma)


class TestThetaStar:
    def test_direct(self):
        assert theta_star(10.0, 2) == pytest.approx(0.8, rel=1e-15)

    def test_clamped(self):
        assert theta_star(2.0, 2) == 0.0
        assert theta_star(0.5, 2) == 0.0

    def test_lognormal_pair_value(self):
        assert theta_star(LN_PAIR_A_20DB, 2) == pytest.approx(
            LN_PAIR_THETA_20DB, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            theta_star(-1.0, 2)


class TestSecondMomentBound:
    def test_no_twist(self):
        assert second_moment_bound(0.0, 10.0, 2) == 1.0

    def test_closed_form(self):
        # at the optimum the bound is (A/n)^(2n) exp(-2A + 2n)
        assert second_moment_bound(0.8, 10.0, 2) == pytest.approx(
            5.0 ** 4 * math.exp(-16.0), rel=1e-12)

    def test_minimized_at_theta_star(self):
        a, n = 10.0, 2
        ts = theta_star(a, n)
        grid = np.linspace(0.01, 0.99, 99)
        values = [second_moment_bound(t, a, n) for t in grid]
        assert second_moment_bound(ts, a, n) <= min(values)
        for dt in (0.05, -0.05):
            assert (second_moment_bound(ts, a, n)
                    <= second_moment_bound(ts + dt, a, n))

    def test_domain(self):
        with pytest.raises(ParameterError):
            second_moment_bound(1.0, 5.0, 1)


class TestIidReference:
    # the single-hazard reference twisting amount 1 - N / Lambda(gamma)

    def test_weibull_matches_minmax(self):
        # the all-mass-on-one-coordinate optimum makes A = Lambda(gamma)
        problem = weibull_pair(20.0)
        sol = solve_pprime(problem)
        ref = 1.0 - 2.0 / float(
            problem.components[0].hazard_function(problem.gamma))
        assert ref == pytest.approx(sol.theta_star, rel=1e-12)
        assert ref == pytest.approx(0.8, rel=1e-12)

    def test_gap_shrinks_with_threshold(self):
        gaps = []
        for gdb in (15.0, 20.0, 25.0, 30.0, 35.0):
            problem = lognormal_pair(gdb)
            sol = solve_pprime(problem)
            ref = 1.0 - 2.0 / float(
                problem.components[0].hazard_function(problem.gamma))
            gaps.append(abs(sol.theta_star - ref))
        assert all(b < a for a, b in zip(gaps[:-1], gaps[1:]))


class TestDominantIndex:
    """The coordinate of the minimizer that carries the most mass."""

    def test_weibull_min_shape(self):
        p = SumProblem((Weibull(0.4, 1.0), Weibull(0.8, 1.0)), 100.0)
        assert solve_pprime(p).dominant_index == 0

    def test_weibull_scale_tiebreak(self):
        p = SumProblem((Weibull(0.5, 1.0), Weibull(0.5, 2.0)), 100.0)
        assert solve_pprime(p).dominant_index == 1

    def test_lognormal_max_sigma(self):
        p = SumProblem((Lognormal.from_db(0.0, 6.0),
                        Lognormal.from_db(0.0, 3.0)), 100.0)
        assert solve_pprime(p).dominant_index == 0

    def test_lognormal_mu_tiebreak(self):
        p = SumProblem((Lognormal.from_db(0.0, 6.0),
                        Lognormal.from_db(3.0, 6.0)), 100.0)
        assert solve_pprime(p).dominant_index == 1

    def test_mixed_smallest_vertex_hazard(self):
        p = SumProblem((Weibull(0.5, 1.0), Lognormal.from_db(0.0, 6.0)), 100.0)
        hazards = [float(c.hazard_function(100.0)) for c in p.components]
        assert solve_pprime(p).dominant_index == int(np.argmin(hazards))


class TestSolvePPrime:
    def test_single_component(self, weibull_half):
        sol = solve_pprime(SumProblem((weibull_half,), 100.0))
        assert np.allclose(sol.x_star, [100.0])
        assert sol.objective == pytest.approx(10.0, rel=1e-12)
        assert sol.theta_star == pytest.approx(1.0 - 1.0 / 10.0, rel=1e-12)

    def test_weibull_pair_vertex(self):
        sol = solve_pprime(weibull_pair(20.0))
        assert sol.objective == pytest.approx(10.0, abs=1e-12)
        assert sol.theta_star == pytest.approx(0.8, rel=1e-9)
        assert max(sol.x_star) == pytest.approx(100.0, rel=1e-6)

    def test_lognormal_pair_regression(self):
        sol = solve_pprime(lognormal_pair(20.0))
        assert sol.objective == pytest.approx(LN_PAIR_A_20DB, rel=1e-12)
        assert sol.theta_star == pytest.approx(LN_PAIR_THETA_20DB, rel=1e-9)
        assert max(sol.x_star) > 99.0
        assert min(sol.x_star) < 0.1

    def test_iid_lognormal_large_n(self):
        # values of the multi-start descent this solver replaced
        ln = Lognormal.from_db(0.0, 6.0)
        for n, a in ((8, 7.753408712031991), (16, 7.752832153496349)):
            sol = solve_pprime(SumProblem.from_db([ln] * n, 20.0))
            assert sol.objective == pytest.approx(a, rel=1e-12)

    def test_one_group_per_law(self, monkeypatch):
        # the middle component is the same law written in natural units
        calls = []
        rate = Lognormal.hazard_rate
        monkeypatch.setattr(Lognormal, "hazard_rate",
                            lambda self, x: calls.append(1) or rate(self, x))
        ln = Lognormal.from_db(0.0, 6.0)
        solutions = []
        for comps in ([ln] * 3, [ln, Lognormal(0.0, 1.3815510557964275), ln]):
            calls.clear()
            solutions.append(
                (solve_pprime(SumProblem.from_db(comps, 30.0)), len(calls)))
        (one, one_calls), (mixed, mixed_calls) = solutions
        assert mixed_calls == one_calls
        assert mixed.objective == one.objective
        assert np.array_equal(mixed.x_star, one.x_star)

    def test_feasibility(self):
        for problem in (weibull_pair(25.0), lognormal_pair(25.0)):
            sol = solve_pprime(problem)
            assert float(np.sum(sol.x_star)) == pytest.approx(
                problem.gamma, rel=1e-9)
            assert np.all(sol.x_star >= 0.0)

    def test_light_tailed_weibull_rejected(self):
        with pytest.raises(ParameterError):
            solve_pprime(SumProblem((Weibull(1.2, 1.0), Weibull(0.5, 1.0)), 10.0))

    @pytest.mark.parametrize("sigma, gamma_db",
                             [(1.0, -170.0), (1.3815510557964275, -240.0)])
    def test_underflowing_hazard_rates_rejected(self, sigma, gamma_db):
        comps = (Lognormal(0.0, sigma),) * 2
        with pytest.raises(ParameterError, match="underflow"):
            solve_pprime(SumProblem.from_db(comps, gamma_db))

    def test_small_gamma_clamps(self):
        sol = solve_pprime(SumProblem(
            (Weibull(0.5, 1.0), Weibull(0.5, 1.0)), 1e-10))
        assert sol.clamped
        assert sol.theta_star == 0.0
        assert sol.second_moment_bound == 1.0

    def test_lemma_shape_at_large_threshold(self):
        # one coordinate carries nearly all mass, the rest stay below the
        # concavity onsets
        for gdb in (25.0, 30.0):
            for problem in (weibull_pair(gdb), lognormal_pair(gdb)):
                sol = solve_pprime(problem)
                onsets = [c.concavity_onset() for c in problem.components]
                big = sol.x_star > problem.gamma / 2.0
                assert np.count_nonzero(big) == 1
                small = sol.x_star[~big]
                assert np.all(small <= max(onsets) + 1e-6 * problem.gamma)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(123)
        cases = []
        for gdb in (15.0, 20.0, 25.0):
            cases.append(weibull_pair(gdb))
            cases.append(lognormal_pair(gdb))
            cases.append(SumProblem.from_db(
                (Weibull(0.4, 1.0), Weibull(0.8, 1.0), Weibull(0.6, 2.0)), gdb))
        # a mixed triple on which multi-start descent stopped 7e-4 above
        # the minimum
        cases.append(SumProblem.from_db(
            (Lognormal(0.43301237959749606, 0.6862907596392953),
             Weibull(0.7065318402600085, 2.36791157696514),
             Lognormal(0.1919902580099455, 1.4821845170046135)), 13.0))
        for problem in cases:
            sol = solve_pprime(problem)
            grid_pts = 2001 if problem.n == 2 else 601
            _, oracle = grid_oracle_pprime(problem, grid_pts)
            assert sol.objective <= oracle + 1e-6 * (1.0 + abs(oracle))

    def test_certificate_on_random_mixes(self):
        # optimality conditions that hold whatever the solver's method
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            problem = SumProblem.from_db(
                [random_component(rng) for _ in range(n)],
                float(rng.uniform(5.0, 40.0)))
            sol = solve_pprime(problem)
            x = sol.x_star
            assert np.all(x >= 0.0)
            assert float(np.sum(x)) == pytest.approx(problem.gamma, rel=1e-12)
            a = float(problem.hazard_sum(x)[0])
            assert sol.objective == pytest.approx(a, rel=1e-14)
            vertices = problem.gamma * np.eye(n)
            assert np.all(a <= problem.hazard_sum(vertices))
            positive = np.flatnonzero(x > 0.0)
            rates = np.array([float(problem.components[i].hazard_rate(x[i]))
                              for i in positive])
            assert rates.max() <= rates.min() * (1.0 + 1e-6)
            onsets = [c.concavity_onset() for c in problem.components]
            assert np.count_nonzero(x > onsets) <= 1
            if n <= 3:
                _, oracle = grid_oracle_pprime(problem, 2001 if n == 2 else 601)
                assert a <= oracle + 1e-6 * abs(oracle)


class TestSerialization:
    def test_solution_to_dict(self):
        d = solve_pprime(weibull_pair(20.0)).to_dict()
        assert d["theta_star"] == pytest.approx(0.8, rel=1e-9)
        assert isinstance(d["x_star"], list)
        assert d["clamped"] is False
