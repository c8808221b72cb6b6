import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import IntegrationWarning, quad

from hrtwist import ParameterError, RandomStream, TwistedDistribution, Weibull
from hrtwist.distributions import DomainError

from conftest import random_component


class TestTwistedPdf:
    def test_zero_twist_is_identity(self, weibull_half, lognormal_6db):
        xs = np.geomspace(0.01, 100.0, 40)
        for base in (weibull_half, lognormal_6db):
            tw = TwistedDistribution(base, 0.0)
            assert np.allclose(tw.pdf(xs), base.pdf(xs), rtol=1e-14)

    def test_weibull_twist_is_rescaled_weibull(self, weibull_half):
        # theta = 0.75 at shape 0.5 inflates the scale to 1/(0.25)^2 = 16
        tw = TwistedDistribution(weibull_half, 0.75)
        equivalent = Weibull(0.5, 16.0)
        assert tw.pdf(4.0) == pytest.approx(float(equivalent.pdf(4.0)), rel=1e-12)

    def test_normalization_random_triples(self):
        rng = np.random.default_rng(314159)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            for _ in range(20):
                base = random_component(rng)
                tw = TwistedDistribution(base, float(rng.uniform(0.0, 0.95)))
                total = 0.0
                edges = [0.0] + list(np.geomspace(1e-12, 1e12, 25)) + [np.inf]
                for a, b in zip(edges[:-1], edges[1:]):
                    v, _ = quad(lambda x: float(tw.pdf(x)), a, b, limit=400)
                    total += v
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain(self, weibull_half):
        with pytest.raises(DomainError):
            TwistedDistribution(weibull_half, 0.5).pdf(-1.0)


class TestTwistedCdf:
    def test_zero_twist(self, lognormal_std):
        xs = np.geomspace(0.1, 10.0, 20)
        assert np.allclose(TwistedDistribution(lognormal_std, 0.0).cdf(xs),
                           lognormal_std.cdf(xs), rtol=1e-12)

    def test_weibull_value(self, weibull_half):
        # survival^(1-theta) at theta=0.5, x=4: e^-2 -> e^-1
        assert TwistedDistribution(weibull_half, 0.5).cdf(4.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        assert TwistedDistribution(lognormal_std, 0.5).cdf(1.0) == pytest.approx(
            1.0 - math.sqrt(0.5), rel=1e-12)

    def test_zero_like_every_law(self, weibull_half, lognormal_std):
        for base in (weibull_half, lognormal_std):
            tw = TwistedDistribution(base, 0.5)
            assert float(tw.cdf(0.0)) == float(base.cdf(0.0)) == 0.0
            with pytest.raises(DomainError):
                tw.cdf(-1.0)

    def test_hazard_is_rescaled(self, lognormal_6db):
        # twisting multiplies the hazard rate and its integral by 1 - theta
        tw = TwistedDistribution(lognormal_6db, 0.7)
        xs = np.geomspace(0.01, 1e4, 30)
        assert np.allclose(tw.hazard_function(xs),
                           0.3 * lognormal_6db.hazard_function(xs), rtol=1e-12)
        assert np.allclose(tw.hazard_rate(xs),
                           0.3 * lognormal_6db.hazard_rate(xs), rtol=1e-10)

    def test_heavier_tail_domination(self):
        rng = np.random.default_rng(8)
        xs = np.geomspace(1e-3, 1e5, 200)
        for _ in range(10):
            base = random_component(rng)
            tw = TwistedDistribution(base, float(rng.uniform(0.05, 0.95)))
            base_sf = base.survival(xs)
            tw_sf = tw.survival(xs)
            assert np.all(tw_sf >= base_sf)
            # strict only where the base survival has not underflowed
            strict = (base.cdf(xs) > 1e-12) & (base_sf > 1e-290)
            assert np.all(tw_sf[strict] > base_sf[strict])


class TestTwistedQuantile:
    def test_zero_twist_exact(self, weibull_half):
        for y in (1e-9, 0.3, 0.999999):
            assert TwistedDistribution(weibull_half, 0.0).quantile(y) == pytest.approx(
                float(weibull_half.quantile(y)), rel=1e-14)

    def test_weibull_closed_form(self, weibull_half):
        y = 1.0 - math.exp(-1.0)
        assert TwistedDistribution(weibull_half, 0.75).quantile(y) == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize("y", [1e-9, 0.5, 1.0 - 1e-9])
    def test_round_trip(self, y, weibull_half, lognormal_6db):
        for base in (weibull_half, lognormal_6db):
            for theta in (0.0, 0.3, 0.8, 0.99):
                tw = TwistedDistribution(base, theta)
                assert float(tw.cdf(tw.quantile(y))) == pytest.approx(y, abs=1e-9)

    def test_extreme_y_no_overflow(self, lognormal_6db):
        # exponent 1/(1-theta) above 10^3: stays finite via the log-space path
        tw = TwistedDistribution(lognormal_6db, 0.999)
        x = float(tw.quantile(1.0 - 1e-12))
        assert math.isfinite(x) and x > 0.0

    def test_domain(self, weibull_half):
        tw = TwistedDistribution(weibull_half, 0.5)
        for y in (0.0, 1.0, -1.0):
            with pytest.raises(DomainError):
                tw.quantile(y)


class TestWeibullShortcut:
    def test_identity_at_zero(self, weibull_half):
        ys = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        assert np.array_equal(TwistedDistribution(weibull_half, 0.0).quantile(ys),
                              weibull_half.quantile(ys))

    @pytest.mark.parametrize("theta,scale", [(0.75, 16.0), (0.8, 25.0)])
    def test_scale_inflation(self, weibull_half, theta, scale):
        # the 1 - 1/e quantile of a Weibull is its scale
        tw = TwistedDistribution(weibull_half, theta)
        assert tw.quantile(1.0 - math.exp(-1.0)) == pytest.approx(scale, rel=1e-12)
        xs = np.geomspace(0.1, 1e4, 50)
        assert np.allclose(tw.survival(xs), Weibull(0.5, scale).survival(xs),
                           rtol=1e-12)

    def test_quantile_equivalence(self, weibull_half):
        # generic inversion path vs the closed-form rescaled Weibull
        theta = 0.6180339887
        tw = TwistedDistribution(weibull_half, theta)
        # same shape, scale inflated by (1 - theta)^(-1/shape)
        shortcut = Weibull(0.5, 1.0 / (1.0 - theta) ** 2.0)
        ys = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        a = tw.quantile(ys)
        b = shortcut.quantile(ys)
        assert np.max(np.abs(a - b) / b) <= 1e-12


class TestSampling:
    def test_zero_twist_median(self, lognormal_std):
        assert TwistedDistribution(lognormal_std, 0.0).quantile(0.5) == pytest.approx(
            1.0, rel=1e-12)

    def test_determinism(self, weibull_half):
        tw = TwistedDistribution(weibull_half, 0.4)
        assert np.array_equal(tw.quantile(RandomStream(5, 0).uniforms_at(0, 8)),
                              tw.quantile(RandomStream(5, 0).uniforms_at(0, 8)))

    def test_hazard_of_sample_is_exponential_mean(self, lognormal_6db):
        # the base cumulative hazard of a twisted draw is Exp(1 - theta)
        theta = 0.7
        tw = TwistedDistribution(lognormal_6db, theta)
        u = RandomStream(2024).uniforms_at(0, 1_000_000)
        lam = lognormal_6db.hazard_function(tw.quantile(u))
        target = 1.0 / (1.0 - theta)
        se = np.std(lam, ddof=1) / math.sqrt(len(lam))
        assert abs(float(np.mean(lam)) - target) <= 3.0 * se

    def test_hazard_of_sample_exponential_ks(self, weibull_half):
        theta = 0.55
        tw = TwistedDistribution(weibull_half, theta)
        u = RandomStream(77).uniforms_at(0, 100_000)
        lam = weibull_half.hazard_function(tw.quantile(u))
        stat = stats.kstest(lam, "expon",
                            args=(0.0, 1.0 / (1.0 - theta))).statistic
        critical_1pct = 1.6276 / math.sqrt(len(lam))
        assert stat < critical_1pct


class TestConstruction:
    @pytest.mark.parametrize("theta", [-0.1, 1.0, 1.5])
    def test_invalid_theta(self, weibull_half, theta):
        with pytest.raises(ParameterError):
            TwistedDistribution(weibull_half, theta)

    def test_zero_theta_allowed(self, weibull_half):
        assert TwistedDistribution(weibull_half, 0.0).theta == 0.0
