import math

import numpy as np
import pytest
from scipy import special

from hrtwist import (
    Lognormal,
    ParameterError,
    Weibull,
    db_to_linear,
    distribution_from_dict,
)
from hrtwist.distributions import DB_SCALE

from conftest import (
    LN1_ONSET,
    LN1_ONSET_EXACT,
    LN6_LAMBDA_100,
    LN6_ONSET,
    LN6_ONSET_EXACT,
    LN6_SF_100,
    LN6_SIGMA,
    cdf,
    quantile,
    random_component,
)


class TestParams:
    def test_weibull_validation(self):
        with pytest.raises(ParameterError):
            Weibull(0.0, 1.0)
        with pytest.raises(ParameterError):
            Weibull(0.5, -1.0)
        with pytest.raises(ParameterError):
            Weibull(math.nan, 1.0)

    def test_lognormal_validation(self):
        with pytest.raises(ParameterError):
            Lognormal(0.0, 0.0)
        for mu in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError):
                Lognormal(mu, 1.0)
        with pytest.raises(ParameterError):
            Lognormal.from_db(math.nan, 6.0)
        p = Lognormal.from_db(0.0, 6.0)
        assert p.mu == 0.0
        assert p.sigma == pytest.approx(DB_SCALE * 6.0, rel=1e-15)

    def test_db_consistency_enforced(self):
        db = {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0}
        for natural in ({"mu": 0.5}, {"sigma": 1.0}, {"mu": 0.5, "sigma": 1.0},
                        {"mu": math.nan}):
            with pytest.raises(ParameterError):
                distribution_from_dict(dict(db, **natural))
        # within the tolerance the dB pair is taken as given
        sigma = DB_SCALE * 6.0
        close = dict(db, mu=1e-13, sigma=sigma * (1 + 5e-13))
        assert distribution_from_dict(close) == Lognormal.from_db(0.0, 6.0)

    def test_lone_db_key_rejected(self):
        # either dB key asks for both, even beside a full natural pair
        natural = {"family": "lognormal", "mu": 5.0, "sigma": 1.0}
        for lone in ({"mu_db": 0.0}, {"sigma_db": 6.0}):
            key = next(iter({"mu_db", "sigma_db"} - set(lone)))
            with pytest.raises(ParameterError, match=key):
                distribution_from_dict(dict(natural, **lone))

    def test_value_types(self):
        # frozen values: equal parameters give equal, hashable components
        assert Weibull(0.5, 1) == Weibull(0.5, 1.0)
        assert len({Lognormal.from_db(0.0, 6.0), Lognormal.from_db(0.0, 6.0)}) == 1
        assert Weibull(0.5, 1.0) != Weibull(0.5, 2.0)
        # the same law in dB and in natural units is one value
        natural = Lognormal(0.0, 1.3815510557964275)
        assert Lognormal.from_db(0.0, 6.0) == natural
        assert len({Lognormal.from_db(0.0, 6.0), natural}) == 1
        with pytest.raises(AttributeError):
            Weibull(0.5, 1.0).shape = 0.7

    def test_db_scale_constant(self):
        assert DB_SCALE == pytest.approx(math.log(10.0) / 10.0, rel=1e-16)


class TestDbConversion:
    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (20.0, 100.0),
                                           (25.0, 316.2278), (30.0, 1000.0)])
    def test_values(self, db, linear):
        assert db_to_linear(db) == pytest.approx(linear, rel=1e-6)


class TestNormalTailOps:
    def test_isf_exp_inverts_log_sf(self):
        # for Lognormal(0, 1), log x is the normal score z
        for ls in (-1e-6, -0.5, -5.0, -100.0, -1e4):
            z = np.log(Lognormal(0.0, 1.0).quantile_from_log_sf(ls))
            assert special.log_ndtr(-z) == pytest.approx(ls, rel=1e-10)


class TestPdf:
    def test_weibull_exponential_case(self):
        assert np.exp(Weibull(1.0, 1.0).log_pdf(1.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        assert np.exp(lognormal_std.log_pdf(1.0)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_weibull_half_at_four(self, weibull_half):
        assert np.exp(weibull_half.log_pdf(4.0)) == pytest.approx(
            0.25 * math.exp(-2.0), rel=1e-12)

    def test_domain(self, weibull_half, lognormal_std):
        for dist in (weibull_half, lognormal_std):
            with pytest.raises(ParameterError):
                dist.log_pdf(0.0)
            with pytest.raises(ParameterError):
                dist.log_pdf(-1.0)


class TestSurvival:
    def test_weibull_closed_form(self, weibull_half):
        assert weibull_half.survival(100.0) == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        assert lognormal_std.survival(1.0) == pytest.approx(0.5, rel=1e-12)

    def test_lognormal_6db_at_100(self, lognormal_6db):
        assert lognormal_6db.survival(100.0) == pytest.approx(LN6_SF_100, rel=1e-10)

    def test_log_survival_consistent(self, lognormal_6db):
        xs = np.geomspace(0.01, 1e4, 50)
        assert np.allclose(np.exp(lognormal_6db.log_survival(xs)),
                           lognormal_6db.survival(xs), rtol=1e-12)

    def test_no_cancellation_in_far_tail(self, lognormal_std):
        # x = exp(mu + 40 sigma): survival underflows but its log is finite
        x = math.exp(40.0)
        ls = float(lognormal_std.log_survival(x))
        z = 40.0
        expect = -z * z / 2.0 - math.log(z * math.sqrt(2.0 * math.pi))
        assert math.isfinite(ls)
        assert ls == pytest.approx(expect, rel=0.01)


class TestHazardRate:
    def test_exponential_constant(self):
        d = Weibull(1.0, 2.0)
        for x in (0.1, 1.0, 50.0):
            assert d.hazard_rate(x) == pytest.approx(0.5, rel=1e-12)

    def test_weibull_half(self, weibull_half):
        assert weibull_half.hazard_rate(4.0) == pytest.approx(0.25, rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        expect = (1.0 / math.sqrt(2.0 * math.pi)) / 0.5
        assert lognormal_std.hazard_rate(1.0) == pytest.approx(expect, rel=1e-12)

    def test_large_x_stays_finite(self, lognormal_std):
        assert math.isfinite(float(lognormal_std.hazard_rate(math.exp(45.0))))


class TestHazardFunction:
    def test_weibull(self, weibull_half):
        assert weibull_half.hazard_function(4.0) == pytest.approx(2.0, rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        assert lognormal_std.hazard_function(1.0) == pytest.approx(
            math.log(2.0), rel=1e-12)

    def test_lognormal_6db_at_100(self, lognormal_6db):
        assert lognormal_6db.hazard_function(100.0) == pytest.approx(
            LN6_LAMBDA_100, rel=1e-10)

    def test_zero(self, weibull_half, lognormal_std):
        assert weibull_half.hazard_function(0.0) == 0.0
        assert lognormal_std.hazard_function(0.0) == 0.0
        with pytest.raises(ParameterError):
            weibull_half.hazard_function(-1.0)

    def test_strictly_increasing(self, lognormal_6db, weibull_half):
        xs = np.geomspace(1e-6, 1e6, 10_000)
        for dist in (lognormal_6db, weibull_half):
            lam = dist.hazard_function(xs)
            assert np.all(np.diff(lam) > 0.0)


class TestQuantile:
    def test_weibull_inverse_of_survival(self, weibull_half):
        assert quantile(weibull_half, 1.0 - math.exp(-1.0)) == pytest.approx(
            1.0, rel=1e-12)

    def test_lognormal_median(self, lognormal_std):
        assert quantile(lognormal_std, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_lognormal_upper_quantile(self, lognormal_6db):
        expect = math.exp(LN6_SIGMA * 1.959963984540054)
        assert quantile(lognormal_6db, 0.975) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("u", [1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
    def test_round_trip(self, u, weibull_half, lognormal_6db):
        for dist in (weibull_half, lognormal_6db):
            assert abs(float(cdf(dist, quantile(dist, u))) - u) <= 1e-9


class TestIdentities:
    def test_pdf_hazard_identity(self):
        # pdf(x) = hazard_rate(x) * exp(-hazard_function(x))
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            dist = random_component(rng)
            x = float(rng.uniform(0.05, 20.0))
            pdf = math.exp(float(dist.log_pdf(x)))
            recon = float(dist.hazard_rate(x)) * math.exp(
                -float(dist.hazard_function(x)))
            assert abs(pdf - recon) <= 1e-10 * pdf

    def test_hazard_function_is_negative_log_survival(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dist = random_component(rng)
            x = float(rng.uniform(0.1, 10.0))
            sf = float(dist.survival(x))
            if sf <= 1e-15:
                continue
            indep = -math.log1p(-float(cdf(dist, x)))
            # the independent path forms 1 - F, whose rounding costs eps/sf
            tol = max(1e-12, 4.0 * np.finfo(float).eps / sf)
            assert abs(float(dist.hazard_function(x)) - indep) <= tol


class TestConcavityOnset:
    def test_weibull_subexponential(self):
        assert Weibull(0.5, 3.0).concavity_onset() == 0.0
        assert Weibull(0.9, 1.0).concavity_onset() == 0.0

    def test_weibull_light_tail_rejected(self):
        with pytest.raises(ParameterError):
            Weibull(1.0, 1.0).concavity_onset()
        with pytest.raises(ParameterError):
            Weibull(1.5, 1.0).concavity_onset()

    def test_lognormal_regression_values(self, lognormal_std, lognormal_6db):
        assert lognormal_6db.concavity_onset() == pytest.approx(LN6_ONSET, rel=1e-3)
        assert lognormal_std.concavity_onset() == pytest.approx(LN1_ONSET, rel=1e-3)

    def test_lognormal_exact_values(self, lognormal_std, lognormal_6db):
        assert lognormal_std.concavity_onset() == pytest.approx(
            LN1_ONSET_EXACT, rel=1e-10)
        assert lognormal_6db.concavity_onset() == pytest.approx(
            LN6_ONSET_EXACT, rel=1e-10)

    def test_sigma_too_small_to_place_the_peak(self):
        # at sigma 1e-4 the bracket's upper slope rounds to the sign of its
        # lower one; 1e-3 is still placed
        with pytest.raises(ParameterError, match="sigma 0.0001"):
            Lognormal(0.0, 1e-4).concavity_onset()
        assert 0.0 < Lognormal(0.0, 1e-3).concavity_onset() < math.inf

    def test_scaling_with_mu(self):
        base = Lognormal(0.0, 1.0).concavity_onset()
        shifted = Lognormal(2.0, 1.0).concavity_onset()
        assert shifted == pytest.approx(math.exp(2.0) * base, rel=1e-10)

    def test_second_difference_nonpositive_beyond_onset(self, lognormal_6db):
        eta = lognormal_6db.concavity_onset()
        h = 1e-4
        for x in np.geomspace(eta * 1.05, eta * 1e4, 60):
            d2 = (float(lognormal_6db.hazard_function(x * (1 + h)))
                  - 2.0 * float(lognormal_6db.hazard_function(x))
                  + float(lognormal_6db.hazard_function(x * (1 - h))))
            assert d2 <= 1e-12


class TestSerialization:
    def test_round_trip_weibull(self, weibull_half):
        spec = {"family": "weibull", "shape": 0.5, "scale": 1.0}
        assert distribution_from_dict(spec) == weibull_half

    def test_round_trip_lognormal_db(self, lognormal_6db):
        spec = {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0}
        assert distribution_from_dict(spec) == lognormal_6db
        # both forms: dB wins, the natural form must agree with it
        both = dict(spec, mu=0.0, sigma=lognormal_6db.sigma)
        assert distribution_from_dict(both) == lognormal_6db

    @pytest.mark.parametrize("spec, key", [
        ({"family": "weibull", "shape": 0.5, "scale": 1.0, "cont": 2}, "cont"),
        ({"family": "lognormal", "mu": 0.0, "sigma": 1.0, "shape": 0.5}, "shape"),
    ])
    def test_unknown_field(self, spec, key):
        with pytest.raises(ParameterError, match=key):
            distribution_from_dict(spec)

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            distribution_from_dict({"family": "pareto", "alpha": 2.0})
