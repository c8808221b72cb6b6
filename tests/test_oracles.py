import functools
import math

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import tanhsinh

from hrtwist import (
    Lognormal,
    OracleConvergenceError,
    ParameterError,
    SumProblem,
    Weibull,
    db_to_linear,
    is_estimate,
    second_moment_bound,
    solve_pprime,
    tail_convolution_2,
)

from conftest import (
    LN_PAIR_TAIL_20DB,
    WB_LN_TAIL_26DB,
    WB_PAIR_TAIL_20DB,
    WB_PAIR_TAIL_30DB,
    WB_PAIR_TAIL_55DB,
    WB_SKEW_TAIL_35DB,
    WB_SKEW_TAIL_42DB,
    lognormal_pair,
    random_component,
    weibull_pair,
    weibull_pair_sweep,
)
from grid_oracle import grid_oracle_pprime


class TestExactTailSingle:
    # a single component's reference tail is its closed-form survival
    def test_weibull(self):
        assert Weibull(0.5, 1.0).survival(100.0) == pytest.approx(
            math.exp(-10.0), rel=1e-12)

    def test_lognormal_median(self):
        assert Lognormal(0.0, 1.0).survival(1.0) == pytest.approx(
            0.5, rel=1e-12)

    def test_exponential(self):
        assert Weibull(1.0, 1.0).survival(math.log(4.0)) == pytest.approx(
            0.25, rel=1e-12)


class TestTailConvolution:
    def test_erlang_closed_form(self):
        d = Weibull(1.0, 1.0)
        assert tail_convolution_2(d, d, 2.0) == pytest.approx(
            3.0 * math.exp(-2.0), rel=1e-9)

    def test_tiny_threshold(self):
        # tanh-sinh abscissae round onto the endpoint 0 at such thresholds
        for d in (Weibull(1.0, 1.0), Weibull(0.5, 1.0)):
            assert tail_convolution_2(d, d, 1e-17) == pytest.approx(1.0, rel=1e-15)

    def test_lognormal_pair_frozen_value(self):
        a, b = Lognormal.from_db(0.0, 6.0), Lognormal.from_db(0.0, 6.0)
        assert tail_convolution_2(a, b, 100.0) == pytest.approx(
            LN_PAIR_TAIL_20DB, rel=1e-10)

    def test_weibull_pair_frozen_values(self):
        d = Weibull(0.5, 1.0)
        assert tail_convolution_2(d, d, 100.0) == pytest.approx(
            WB_PAIR_TAIL_20DB, rel=1e-10)
        assert tail_convolution_2(d, d, 1000.0) == pytest.approx(
            WB_PAIR_TAIL_30DB, rel=1e-10)

    def test_deep_weibull_pair_frozen_value(self):
        # about 1e-244: summed in log space, the tail keeps its precision
        d = Weibull(0.5, 1.0)
        assert tail_convolution_2(d, d, float(db_to_linear(55.0))) == pytest.approx(
            WB_PAIR_TAIL_55DB, rel=1e-10)

    @pytest.mark.parametrize("first, second, gamma_db, exact", [
        (Weibull(0.2, 1.0), Weibull(0.8, 3.0), 35.0, WB_SKEW_TAIL_35DB),
        (Weibull(0.2, 1.0), Weibull(0.8, 3.0), 42.0, WB_SKEW_TAIL_42DB),
        (Weibull(0.3, 2.0), Lognormal.from_db(1.0, 8.0), 26.0, WB_LN_TAIL_26DB),
    ], ids=["skew-35dB", "skew-42dB", "weibull-lognormal-26dB"])
    def test_mixed_pair_frozen_values(self, first, second, gamma_db, exact):
        gamma = float(db_to_linear(gamma_db))
        assert tail_convolution_2(first, second, gamma) == pytest.approx(
            exact, rel=1e-10)
        assert tail_convolution_2(second, first, gamma) == pytest.approx(
            exact, rel=1e-10)

    def test_symmetry(self):
        a, b = Weibull(0.4, 1.0), Lognormal.from_db(0.0, 6.0)
        left = tail_convolution_2(a, b, 50.0)
        right = tail_convolution_2(b, a, 50.0)
        assert left == pytest.approx(right, rel=1e-8)

    def test_monotone_decreasing_in_gamma(self):
        d = Weibull(0.5, 1.0)
        gammas = np.geomspace(1.0, 1000.0, 12)
        values = [tail_convolution_2(d, d, g) for g in gammas]
        assert all(b < a for a, b in zip(values[:-1], values[1:]))

    def test_random_mixes(self):
        # P(max > gamma) <= P(X1 + X2 > gamma) <= P(max > gamma / 2), and
        # the tail is symmetric in its two arguments
        rng = np.random.default_rng(2024)
        for _ in range(40):
            a, b = random_component(rng), random_component(rng)
            gamma = float(db_to_linear(rng.uniform(-10.0, 50.0)))
            value = tail_convolution_2(a, b, gamma)
            swapped = tail_convolution_2(b, a, gamma)
            lo_a, lo_b = a.survival(gamma), b.survival(gamma)
            hi_a, hi_b = a.survival(gamma / 2), b.survival(gamma / 2)
            assert lo_a + lo_b - lo_a * lo_b <= value <= hi_a + hi_b - hi_a * hi_b
            assert swapped == pytest.approx(value, rel=1e-12)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # a converged run that reports each half's error as large as the
        # half itself misses the 1e-10 relative tolerance
        def inflated(*args, **kwargs):
            res = tanhsinh(*args, **kwargs)
            res.error = res.integral.copy()  # both in log space
            return res

        # the oracle imports tanhsinh when called, so patch it at its source
        monkeypatch.setattr(scipy.integrate, "tanhsinh", inflated)
        d = Weibull(0.5, 1.0)
        with pytest.raises(OracleConvergenceError, match="exceeds tolerance"):
            tail_convolution_2(d, d, 100.0)

    def test_unconverged_status_raises(self, monkeypatch):
        # one refinement level cannot reach the stopping rule
        monkeypatch.setattr(scipy.integrate, "tanhsinh",
                            functools.partial(tanhsinh, maxlevel=1))
        d = Weibull(0.5, 1.0)
        with pytest.raises(OracleConvergenceError):
            tail_convolution_2(d, d, 100.0)

    def test_matches_is_estimate(self):
        for problem, oracle in ((lognormal_pair(20.0), LN_PAIR_TAIL_20DB),
                                (weibull_pair(20.0), WB_PAIR_TAIL_20DB)):
            sol = solve_pprime(problem)
            r = is_estimate(problem, sol.theta_star, 100_000, 404)
            assert abs(r.alpha_hat - oracle) <= 3.0 * r.std_error

    def test_domain(self):
        d = Weibull(0.5, 1.0)
        with pytest.raises(ParameterError):
            tail_convolution_2(d, d, 0.0)


class TestGridOracle:
    def test_single_component(self):
        p = SumProblem((Weibull(0.5, 1.0),), 7.0)
        x, obj = grid_oracle_pprime(p, 100)
        assert np.allclose(x, [7.0])
        assert obj == pytest.approx(float(p.components[0].hazard_function(7.0)))

    def test_weibull_pair_vertex(self):
        x, obj = grid_oracle_pprime(weibull_pair(20.0), 10_001)
        assert obj == pytest.approx(10.0, rel=1e-9)
        assert max(x) == pytest.approx(100.0, rel=1e-9)

    def test_lognormal_pair_near_vertex(self):
        x, obj = grid_oracle_pprime(lognormal_pair(20.0), 20_001)
        assert obj == pytest.approx(7.7539, rel=1e-3)
        assert max(x) > 99.0

    def test_three_components(self):
        p = SumProblem((Weibull(0.5, 1.0), Weibull(0.5, 1.0),
                        Weibull(0.7, 1.0)), 50.0)
        x, obj = grid_oracle_pprime(p, 201)
        assert float(np.sum(x)) == pytest.approx(50.0, rel=1e-9)
        assert obj >= float(solve_pprime(p).objective) - 1e-12

    def test_cost_guard(self):
        p = SumProblem((Weibull(0.5, 1.0),) * 4, 10.0)
        with pytest.raises(ParameterError):
            grid_oracle_pprime(p, 10)
        with pytest.raises(ParameterError):
            grid_oracle_pprime(weibull_pair(20.0), 1)


class TestThetaSweep:
    def test_bound_column_and_grid(self, tmp_path):
        problem = weibull_pair(20.0)
        rows, theta_star = weibull_pair_sweep(tmp_path, 20.0, [0.5, 0.7, 0.9],
                                              20_000, 12)
        thetas = [theta for theta, *_ in rows]
        assert theta_star in thetas  # inserted automatically
        assert len(thetas) == 4
        objective = solve_pprime(problem).objective
        for theta, _, bound, _ in rows:
            assert bound == pytest.approx(
                float(second_moment_bound(theta, objective, problem.n)),
                rel=1e-12)

    def test_empirical_below_bound(self, tmp_path):
        grid = np.arange(0.3, 0.96, 0.05)
        rows, _ = weibull_pair_sweep(tmp_path, 20.0, grid, 50_000, 9)
        for _, m2, bound, se in rows:
            assert m2 <= bound + 5.0 * se
