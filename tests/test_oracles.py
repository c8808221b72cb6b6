import itertools
import math

import numpy as np
import pytest
from scipy.integrate import tanhsinh
from scipy.special import logsumexp

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
from hrtwist import oracles

from conftest import (
    LN_PAIR_TAIL_20DB,
    WB_LN_TAIL_26DB,
    WB_NARROW_SPIKE_TAIL_100DB,
    WB_NARROW_SPIKE_TAIL_200DB,
    WB_PAIR_TAIL_20DB,
    WB_PAIR_TAIL_30DB,
    WB_PAIR_TAIL_55DB,
    WB_SKEW_TAIL_35DB,
    WB_SKEW_TAIL_42DB,
    WB_SPIKE_TAIL_200DB,
    WB_SPIKE_TAIL_300DB,
    lognormal_pair,
    random_component,
    weibull_pair,
    weibull_pair_sweep,
)
from grid_oracle import grid_oracle_pprime


def tanhsinh_tail(dist1, dist2, gamma):
    """The convolution tail by scipy's generic tanh-sinh: the reference.

    The same split and log integrands as `tail_convolution_2`, with both
    integrals in one vectorised `tanhsinh` call to 1e-13 relative.
    Raises `OracleConvergenceError` where a half does not converge or
    the error estimate misses 1e-10 relative.
    """
    half = 0.5 * gamma

    def log_integrand(x, first):
        x, first = np.broadcast_arrays(np.maximum(x, np.finfo(float).tiny), first)
        out = np.empty(x.shape)
        a, b = x[first], x[~first]
        out[first] = dist1.log_pdf(a) + dist2.log_survival(gamma - a)
        out[~first] = dist2.log_pdf(b) + dist1.log_survival(gamma - b)
        return out

    res = tanhsinh(log_integrand, 0.0, half, args=(np.array([True, False]),),
                   log=True, rtol=math.log(1e-13))
    if np.any(res.status != 0):
        raise OracleConvergenceError(f"status {res.status.tolist()}")
    corner = float(dist1.log_survival(half) + dist2.log_survival(half))
    log_result = float(logsumexp(np.append(res.integral, corner)))
    if float(logsumexp(res.error)) > math.log(1e-10) + log_result:
        raise OracleConvergenceError("error estimate above 1e-10")
    return math.exp(log_result)


def max_bounds(dist1, dist2, gamma):
    """P(max > gamma) <= P(X1 + X2 > gamma) <= P(max > gamma / 2)."""
    lo_1, lo_2 = dist1.survival(gamma), dist2.survival(gamma)
    hi_1, hi_2 = dist1.survival(gamma / 2), dist2.survival(gamma / 2)
    return lo_1 + lo_2 - lo_1 * lo_2, hi_1 + hi_2 - hi_1 * hi_2


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
        # a lognormal spike about 0.02 wide at 1 beside a law spread over
        # decades, which the cut at its mode resolves
        (Weibull(0.05, 1.0), Lognormal.from_db(0.0, 0.1), 200.0, WB_SPIKE_TAIL_200DB),
        (Weibull(0.05, 1.0), Lognormal.from_db(0.0, 0.1), 300.0, WB_SPIKE_TAIL_300DB),
        (Weibull(0.05, 1.0), Lognormal.from_db(0.0, 0.05), 100.0,
         WB_NARROW_SPIKE_TAIL_100DB),
        (Weibull(0.05, 1.0), Lognormal.from_db(0.0, 0.05), 200.0,
         WB_NARROW_SPIKE_TAIL_200DB),
    ], ids=["skew-35dB", "skew-42dB", "weibull-lognormal-26dB",
            "spike-0.1dB-200dB", "spike-0.1dB-300dB", "spike-0.05dB-100dB",
            "spike-0.05dB-200dB"])
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
        # the tail lies between the bounds by the max, is symmetric in its
        # two arguments, and matches scipy's tanh-sinh
        rng = np.random.default_rng(2024)
        for _ in range(40):
            a, b = random_component(rng), random_component(rng)
            gamma = float(db_to_linear(rng.uniform(-10.0, 50.0)))
            value = tail_convolution_2(a, b, gamma)
            swapped = tail_convolution_2(b, a, gamma)
            lo, hi = max_bounds(a, b, gamma)
            assert lo <= value <= hi
            assert swapped == pytest.approx(value, rel=1e-12)
            assert value == pytest.approx(tanhsinh_tail(a, b, gamma), rel=1e-11)

    @pytest.mark.parametrize("law, lo_db, hi_db", [
        (Weibull(0.5, 1.0), 15.0, 60.0),
        (Lognormal.from_db(0.0, 6.0), 10.0, 49.0),
    ], ids=["wb2-deep", "ln2"])
    def test_ladder_prints_reference_digits(self, law, lo_db, hi_db):
        # the benchmark's pair ladders, 0.5 dB apart: validate prints 7 digits
        for gamma_db in np.arange(lo_db, hi_db, 0.5):
            gamma = float(db_to_linear(gamma_db))
            assert (f"{tail_convolution_2(law, law, gamma):.6e}"
                    == f"{tanhsinh_tail(law, law, gamma):.6e}")

    def test_unreachable_tolerance_raises(self, monkeypatch):
        # a stopping rule that takes any change ends the run at level 3,
        # whose change from level 2 is far above the 1e-10 promise
        monkeypatch.setattr(oracles, "_STOP_RTOL", math.inf)
        d = Lognormal.from_db(0.0, 6.0)
        with pytest.raises(OracleConvergenceError, match="exceeds tolerance"):
            tail_convolution_2(d, d, 100.0)

    def test_mass_below_least_normal_float_raises(self):
        # Weibull(0.03, 1) has about tiny^0.03 = 6e-10 of its mass below
        # the least normal float, where no node can look; the tail computed
        # without that share is off by 6.1e-10 relative from mpmath's
        # 0.25357955620063804 at 100 dB
        d = Weibull(0.03, 1.0)
        with pytest.raises(OracleConvergenceError, match="exceeds tolerance"):
            tail_convolution_2(d, d, 1e10)

    def test_level_cap_raises(self, monkeypatch):
        # levels 0 and 1 alone never reach the stopping rule's level 3
        monkeypatch.setattr(oracles, "_LEVELS", 2)
        d = Weibull(0.5, 1.0)
        with pytest.raises(OracleConvergenceError, match="did not converge"):
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


# the domain probe's grid: 7 laws, their 28 pairs (ids index the laws)
DOMAIN_LAWS = (Weibull(0.05, 1.0), Weibull(0.3, 1.0), Weibull(0.95, 1.0),
               Lognormal.from_db(0.0, 0.5), Lognormal.from_db(0.0, 6.0),
               Lognormal.from_db(3.0, 20.0), Lognormal(0.0, 1.0))
DOMAIN_PAIRS = list(itertools.combinations_with_replacement(DOMAIN_LAWS, 2))
DOMAIN_IDS = [f"{i}-{j}" for i, j in itertools.combinations_with_replacement(
    range(len(DOMAIN_LAWS)), 2)]


class TestDomainGrid:
    @pytest.mark.parametrize("first, second", DOMAIN_PAIRS, ids=DOMAIN_IDS)
    def test_matches_tanhsinh_or_stays_bounded(self, first, second):
        # where tanhsinh answers, so does the oracle, to 1e-11; where it
        # raises, the oracle raises or lies between the bounds by the max,
        # up to its 1e-10 promise (a tail near P(max > gamma) can round
        # just below it)
        for gamma_db in (-20.0, -5.0, 0.0, 10.0, 20.0, 35.0, 50.0, 100.0, 200.0):
            gamma = float(db_to_linear(gamma_db))
            try:
                reference = tanhsinh_tail(first, second, gamma)
            except OracleConvergenceError:
                reference = None
            if reference is not None:
                assert tail_convolution_2(first, second, gamma) == pytest.approx(
                    reference, rel=1e-11)
                continue
            try:
                value = tail_convolution_2(first, second, gamma)
            except OracleConvergenceError:
                continue
            lo, hi = max_bounds(first, second, gamma)
            assert lo * (1.0 - 1e-10) <= value <= hi * (1.0 + 1e-10)


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
