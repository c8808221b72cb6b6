import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hrtwist import (
    Lognormal,
    ParameterError,
    SumProblem,
    Weibull,
    second_moment_bound,
    solve_pprime,
    theta_star,
)
from hrtwist import distributions, solver
from hrtwist.roots import find_root

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

    def test_rounding_to_one_rejected(self):
        # N / A below half an ulp of 1: the message names A and N
        with pytest.raises(ParameterError, match=r"A = 1\.000000e\+19, N = 2"):
            theta_star(1e19, 2)
        # the Weibull(0.95, 1) pair at 200 dB: A = (10^20)^0.95 = 10^19
        with pytest.raises(ParameterError, match="rounds to 1.0"):
            solve_pprime(SumProblem.from_db((Weibull(0.95, 1.0),) * 2, 200.0))


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

    def test_is_the_squared_weight_at_a(self):
        # one weight formula: the bound is exp(2 log_weight(theta, A, N)),
        # with the bits of the doubled expression, since doubling is exact
        def exp_or_inf(x):
            try:
                return math.exp(x)
            except OverflowError:
                return math.inf

        seen = set()
        for theta in (0.0, 1e-12, 0.1378, 0.5, 0.8, 0.99, 1 - 1e-12):
            for a in (0.0, 0.5, 10.0, 1e3, 1e6, 1e12):
                for n in (1, 2, 3, 64, 1024):
                    bound = second_moment_bound(theta, a, n)
                    assert bound == exp_or_inf(2.0 * solver.log_weight(theta, a, n))
                    assert bound == exp_or_inf(
                        -2.0 * n * math.log1p(-theta) - 2.0 * theta * a)
                    seen.add(0.0 if bound == 0.0 else math.inf if bound == math.inf
                             else 1.0)
        assert seen == {0.0, 1.0, math.inf}

    def test_power_past_the_float_range_is_inf(self):
        # 0.7^-2048 is e^730, and the bound e^724.5: past the largest float
        assert second_moment_bound(0.3, 10.0, 1024) == math.inf

    # where (1 - theta)^(-2N) overflows, or exp(-2 theta A) underflows while
    # the bound is normal (300 laws at 56.9 dB: 2.68e-127 at theta*), or
    # exp(-2 theta A) is subnormal and has lost bits (8 laws at 52.2 dB,
    # theta 0.9: the product is 7e-6 off the bound 3.456113243761666e-303)
    @pytest.mark.parametrize("law, n, gamma_db, thetas", [
        (Weibull(0.5, 1.0), 64, 100.0, ()),
        (Weibull(0.5, 1.0), 1024, 300.0, ()),
        (Lognormal.from_db(0.0, 6.0), 256, 40.0, (0.5, 0.8)),
        (Weibull(0.5, 1.0), 300, 56.9, (0.6,)),
        (Weibull(0.5, 1.0), 8, 52.2, (0.9,))],
        ids=["weibull-64", "weibull-1024", "lognormal-256", "weibull-300",
             "weibull-8"])
    def test_large_n_bound_is_its_log_form(self, law, n, gamma_db, thetas):
        problem = SumProblem.from_db([law] * n, gamma_db)
        sol = solve_pprime(problem)
        assert sol.second_moment_bound == second_moment_bound(
            sol.theta_star, sol.objective, n)
        for theta in (sol.theta_star, *thetas):
            bound = second_moment_bound(theta, sol.objective, n)
            with np.errstate(over="ignore", under="ignore"):
                want = float(np.exp(-2.0 * n * math.log1p(-theta)
                                    - 2.0 * theta * sol.objective))
            if 0.0 < want < math.inf:
                assert abs(bound - want) <= 1e-12 * want, theta
            else:
                assert bound == want, theta
        if n == 300:
            assert sol.second_moment_bound == pytest.approx(2.684739634352e-127, rel=1e-12)
        if n == 8:
            assert second_moment_bound(0.9, sol.objective, n) == pytest.approx(
                3.456113243761666e-303, rel=1e-12)


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

    def test_interior_candidate_near_minus_8db(self):
        # the interior root, below the vertex's 0.10340276987075846
        sol = solve_pprime(lognormal_pair(-7.75))
        assert sol.objective == pytest.approx(0.07427388934091872, rel=1e-12)

    @pytest.mark.parametrize("comps, gamma_db, objective", [
        ((Lognormal.from_db(0.0, 6.0), Lognormal.from_db(3.0, 20.0)), -20.0,
         4.291524059190425e-4),
        ((Lognormal.from_db(3.0, 20.0), Lognormal(0.0, 1.0)), -5.0,
         0.13330964720141023),
    ], ids=["6dB-20dB-at-minus-20dB", "20dB-1nat-at-minus-5dB"])
    def test_rest_coordinate_rounding_below_zero(self, comps, gamma_db,
                                                 objective):
        # gamma minus the rising-branch points rounds to about -3.5e-18;
        # clamped at 0, the minimum is the vertex a fine grid finds too
        problem = SumProblem.from_db(comps, gamma_db)
        sol = solve_pprime(problem)
        assert sol.objective == pytest.approx(objective, rel=1e-12)
        _, oracle = grid_oracle_pprime(problem, 20_001)
        assert sol.objective <= oracle
        assert min(sol.x_star) >= 0.0

    def test_mismatch_overflow_is_silent(self):
        # rate / nu overflows in the scan; warnings are errors here
        problem = SumProblem.from_db(
            (Weibull(0.05, 1.0), Lognormal.from_db(0.0, 0.5)), -5.0)
        assert solve_pprime(problem).objective == pytest.approx(
            7.619853024160583e-24, rel=1e-12)

    def test_feasibility(self):
        for problem in (weibull_pair(25.0), lognormal_pair(25.0)):
            sol = solve_pprime(problem)
            x = np.asarray(sol.x_star)
            assert float(np.sum(x)) == pytest.approx(problem.gamma, rel=1e-9)
            assert np.all(x >= 0.0)

    def test_light_tailed_weibull_rejected(self):
        with pytest.raises(ParameterError):
            solve_pprime(SumProblem((Weibull(1.2, 1.0), Weibull(0.5, 1.0)), 10.0))

    @pytest.mark.parametrize("sigma, gamma_db",
                             [(1.0, -170.0), (1.3815510557964275, -240.0)])
    def test_underflowing_hazard_rates_rejected(self, sigma, gamma_db):
        comps = (Lognormal(0.0, sigma),) * 2
        with pytest.raises(ParameterError, match="underflow"):
            solve_pprime(SumProblem.from_db(comps, gamma_db))

    def test_largest_thresholds_solve(self):
        # gamma near the largest float: the hazard rates at gamma stay finite
        # and positive, so no false underflow is reported
        for gamma_db in (3077.0, 3080.0, 3082.5):
            sol = solve_pprime(SumProblem.from_db((Lognormal.from_db(0.0, 6.0),) * 2,
                                                  gamma_db))
            assert 0.0 < sol.theta_star < 1.0

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
                x = np.asarray(sol.x_star)
                big = x > problem.gamma / 2.0
                assert np.count_nonzero(big) == 1
                small = x[~big]
                assert np.all(small <= max(onsets) + 1e-6 * problem.gamma)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(123)
        cases = []
        for gdb in (15.0, 20.0, 25.0):
            cases.append(weibull_pair(gdb))
            cases.append(lognormal_pair(gdb))
            cases.append(SumProblem.from_db(
                (Weibull(0.4, 1.0), Weibull(0.8, 1.0), Weibull(0.6, 2.0)), gdb))
        # below 0 dB the minimum is the equal split x_j = gamma / n, whose
        # root sits on the scan's first point, with no sign change around it
        ln = Lognormal.from_db(0.0, 6.0)
        for gdb in (-20.0, -8.0, -5.0):
            cases.append(SumProblem.from_db([ln] * 2, gdb))
            cases.append(SumProblem.from_db([ln] * 3, gdb))
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
            x = np.asarray(sol.x_star)
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


class TestScan:
    """Lognormal.rising_branch on the solver's own grid of 128 log rates."""

    @staticmethod
    def scan_rates(problem, monkeypatch):
        rates = []
        real = Lognormal.rising_branch
        with monkeypatch.context() as m:
            m.setattr(Lognormal, "rising_branch",
                      lambda self, rate: rates.append(rate) or real(self, rate))
            solve_pprime(problem)
        return rates[0]  # the scan comes before any refinement

    @pytest.mark.parametrize("n, gamma_db", [
        (3, 10.0), (3, 30.0), (3, 48.0), (2, -8.0), (3, -5.0)])
    def test_each_point_converges_on_its_own(self, monkeypatch, n, gamma_db):
        ln = Lognormal.from_db(0.0, 6.0)
        rates = self.scan_rates(SumProblem.from_db([ln] * n, gamma_db),
                                monkeypatch)
        # the scan ends at the peak rate, where the slope of the Newton
        # equation vanishes
        peak = float(ln.hazard_rate(ln.concavity_onset()))
        assert rates.size == 128
        assert rates[-1] == pytest.approx(peak, rel=1e-14)

        calls = []
        real = distributions._log_mills
        with monkeypatch.context() as m:
            m.setattr(distributions, "_log_mills",
                      lambda z: calls.append(1) or real(z))
            x = ln.rising_branch(rates)
        # one call places the peak, and each Newton step makes one: the
        # slowest point of these scans takes 7 to 11 steps, and the loop
        # allows 60
        assert len(calls) <= 1 + 12
        assert np.all(x <= ln.concavity_onset())
        np.testing.assert_allclose(ln.hazard_rate(x), rates, rtol=1e-12, atol=0)
        # the scan and the refinement of its cells see the same values
        alone = [ln.rising_branch(np.array([r]))[0] for r in rates]
        assert np.array_equal(x, alone)


class TestFindRoot:
    """The solver's bracketed root finder against scipy's Brent routine."""

    FUNCTIONS = [
        (lambda x: x ** 3 - 2.0 * x - 5.0, -1.0, 4.0),
        (lambda x: math.exp(x) - 3.0, -2.0, 5.0),
        (lambda x: math.atan(x - 0.7), -3.0, 1.0),
        (lambda x: (x - 1.0) ** 3 + 0.1 * (x - 1.0), 0.2, 4.5),
        (lambda x: math.log(x) + x - 2.0, 0.01, 3.0),
        (lambda x: 1e-300 * (x - 0.5), 0.0, 1.0),
    ]

    @pytest.mark.parametrize("xtol", [1e-15, 1e-14, 2e-12, 1e-6])
    def test_same_root_and_evaluations_as_scipy(self, xtol):
        for f, lo, hi in self.FUNCTIONS:
            ours, theirs = [], []
            root = find_root(lambda x: ours.append(x) or f(x), lo, hi, xtol)
            ref = brentq(lambda x: theirs.append(x) or f(x), lo, hi, xtol=xtol)
            assert root == ref
            assert ours == theirs

    def test_endpoint_root(self):
        assert find_root(lambda x: x - 2.0, 2.0, 3.0, 1e-12) == 2.0
        assert find_root(lambda x: x - 3.0, 2.0, 3.0, 1e-12) == 3.0

    @pytest.mark.parametrize("xtol", [1e-14, 1e-6])
    def test_given_end_values_are_not_evaluated_again(self, xtol):
        for f, lo, hi in self.FUNCTIONS:
            every, inner = [], []
            root = find_root(lambda x: every.append(x) or f(x), lo, hi, xtol)
            assert find_root(lambda x: inner.append(x) or f(x), lo, hi, xtol,
                             f_lo=f(lo), f_hi=f(hi)) == root
            assert every == [lo, hi] + inner

    def test_given_nan_end_raises(self):
        with pytest.raises(ParameterError, match="NaN"):
            find_root(lambda x: x - 0.5, 0.0, 1.0, 1e-12, f_lo=math.nan)

    @pytest.mark.parametrize("f, lo, hi, xtol, match", [
        (lambda x: x * x + 1.0, 0.0, 1.0, 1e-12, "no sign change"),
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 1e-12, "NaN"),
        # a step at 1e-300 in a bracket of width 2e300 takes more than
        # 100 halvings to reach xtol
        (lambda x: -1.0 if x < 1e-300 else 1.0, -1e300, 1e300, 1e-320,
         "did not converge in 100 steps"),
    ], ids=["no-sign-change", "nan", "no-convergence"])
    def test_failures_raise(self, f, lo, hi, xtol, match):
        with pytest.raises(ParameterError, match=match):
            find_root(f, lo, hi, xtol)


class TestRefinementReusesScan:
    # the lognormal triple over the 10-48.5 dB ladder of ccdf curves
    LADDER = [SumProblem.from_db([Lognormal.from_db(0.0, 6.0)] * 3, 10.0 + 0.5 * k)
              for k in range(78)]

    def test_refinement_evaluates_inside_its_bracket(self, monkeypatch):
        brackets = []

        def spy(f, lo, hi, xtol, **ends):
            points = []
            brackets.append((lo, hi, points))
            return find_root(lambda t: points.append(t) or f(t), lo, hi, xtol,
                             **ends)

        monkeypatch.setattr(solver, "find_root", spy)
        for problem in self.LADDER:
            solve_pprime(problem)
        assert len(brackets) >= len(self.LADDER)
        # the scan holds the mismatch at both ends of each bracket
        assert all(lo < t < hi for lo, hi, points in brackets for t in points)

    def test_rising_branch_calls_per_solve(self, monkeypatch):
        calls = [0]
        rising_branch = Lognormal.rising_branch

        def spy(self, nu):
            calls[0] += 1
            return rising_branch(self, nu)

        monkeypatch.setattr(Lognormal, "rising_branch", spy)
        for problem in self.LADDER:
            solve_pprime(problem)
        # the scan, the refinement's steps inside the bracket and the
        # candidates: 7 a solve when the refinement evaluated both ends again
        assert calls[0] == 5 * len(self.LADDER)


class TestSerialization:
    def test_solutions_are_values(self):
        # two solves of one problem compare and hash equal
        a, b = (solve_pprime(lognormal_pair(25.0)) for _ in range(2))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
