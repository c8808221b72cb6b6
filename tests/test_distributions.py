import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import hrtwist
from hrtwist import Lognormal, ParameterError, Weibull, db_to_linear
from hrtwist.cli import ConfigError, ExperimentConfig
from hrtwist.distributions import DB_SCALE, _hazard_peak_z

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


def component(spec):
    """The law a config's component object describes."""
    raw = {"components": [spec], "thresholds_db": [20.0], "samples_is": 2,
           "samples_naive": 1, "seed": 1}
    return ExperimentConfig.from_dict(raw).problems[0][1].components[0]


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

    def test_lone_db_key_rejected(self):
        # a lone dB key is a spelling of its own, even beside a natural pair
        natural = {"family": "lognormal", "mu": 5.0, "sigma": 1.0}
        for lone in ({"mu_db": 0.0}, {"sigma_db": 6.0}):
            key = next(iter({"mu_db", "sigma_db"} - set(lone)))
            with pytest.raises(ConfigError, match=key):
                component(dict(natural, **lone))

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

    def test_lognormal_past_the_product_overflow(self, lognormal_6db):
        # x sigma sqrt(2 pi) overflows from about 5.2e307 at 6 dB; warnings
        # are errors here, so an overflow warning fails the test
        x = np.array([1e307, 1e308, np.finfo(float).max])
        log_pdf = lognormal_6db.log_pdf(x)
        assert np.isfinite(log_pdf).all()
        z = np.log(x) / lognormal_6db.sigma
        expect = (-np.log(x) - np.log(lognormal_6db.sigma)
                  - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z)
        assert log_pdf == pytest.approx(expect, rel=1e-14)
        assert math.isfinite(float(lognormal_6db.log_pdf(1e308)))

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


class TestWeibullScaleExtremes:
    # x / scale is 0 or inf here though every value is a normal float;
    # warnings are errors, so an overflow or a 0 ** -0.5 fails the test
    @pytest.mark.parametrize("scale, x, rel", [
        # x / scale overflows; at 5e9, gamma / 2 at 100 dB, the rate is 7.07e144
        (1e-300, [5e9, 1e10, 1e300], 1e-13),
        (1e300, [np.finfo(float).tiny, 1e-30], 1e-13),  # x / scale underflows to 0
        # shape / scale overflows too, also beside the in-range 1e-300 / scale;
        # at 1 the rate is 5.0e154 and the log density -1.0e155.  The rate is
        # exp of a log near 700 here, on either side, so each carries a few
        # of that log's ulps, 1.1e-13 each, as relative error
        (1e-310, [1e-300, 1.0, 1e300], 5e-13),
    ], ids=["tiny-scale", "huge-scale", "subnormal-scale"])
    def test_log_forms_past_the_quotient_range(self, scale, x, rel):
        d = Weibull(0.5, scale)
        log_t = np.log(x) - math.log(scale)
        log_rate = math.log(0.5) - math.log(scale)
        assert d.log_survival(x) == pytest.approx(-np.exp(0.5 * log_t), rel=rel)
        assert d.hazard_rate(x) == pytest.approx(
            np.exp(log_rate - 0.5 * log_t), rel=rel)
        assert d.log_pdf(x) == pytest.approx(
            log_rate - 0.5 * log_t - np.exp(0.5 * log_t), rel=rel)

    @pytest.mark.parametrize("scale", [1e-300, 1e-310], ids=["plain", "log"])
    def test_rate_past_the_float_range_is_inf(self, scale):
        # at x = 1e-320 the rate is 5e309 at scale 1e-300, where shape / scale
        # is in range, and exp of about 725 at 1e-310, where it is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Weibull(0.5, scale).hazard_rate(1e-320) == math.inf

    def test_in_range_quotients_keep_their_bits(self):
        # beside 1e10 / 1e-300, which overflows, the others take the plain
        # formula
        k, b = 0.5, 1e-300
        d, x = Weibull(k, b), np.array([1e-10, 1.0, 1e10])
        t = x[:2] / b
        assert (d.log_survival(x)[:2] == -(t ** k)).all()
        assert (d.hazard_rate(x)[:2] == (k / b) * t ** (k - 1.0)).all()
        assert (d.log_pdf(x)[:2]
                == np.log(k / b) + (k - 1.0) * np.log(t) - t ** k).all()


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


class TestSpecialBinding:
    # scipy.special is bound on the first lognormal evaluation, and in a
    # run that may be a sampling thread's; two threads make it at once here
    PROBE = """
import json, sys, threading
sys.path.insert(0, sys.argv[1])
import numpy as np
from hrtwist import Lognormal

ln = Lognormal.from_db(0.0, 6.0)
log_sf = np.linspace(-700.0, -1e-12, 1001)
unloaded = "scipy" not in sys.modules
start = threading.Barrier(2)
out = [None, None]

def first(k):
    start.wait()
    out[k] = ln.quantile_from_log_sf(log_sf).tolist()

threads = [threading.Thread(target=first, args=(k,)) for k in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps({"unloaded": unloaded, "values": out}))
"""

    def test_first_call_from_worker_threads(self):
        src = Path(hrtwist.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", self.PROBE, str(src)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        report = json.loads(proc.stdout)
        assert report["unloaded"]
        log_sf = np.linspace(-700.0, -1e-12, 1001)
        here = Lognormal.from_db(0.0, 6.0).quantile_from_log_sf(log_sf).tolist()
        assert report["values"] == [here, here]


class TestSpecialLoader:
    # _special loads scipy.special._ufuncs under a stub of the package, and
    # falls back to the package where that fails; each case runs in a fresh
    # interpreter, where scipy.special is not yet loaded
    HEAD = """
import importlib, importlib.abc, importlib.machinery, json, sys, types
sys.path[:0] = sys.argv[1:3]
from hrtwist import distributions
"""
    # the first import of the ufunc module raises, or its ndtri_exp is
    # hidden from any reader outside the scipy.special package
    FAULT = HEAD + """
from outputs_digest import CONFIGS, _digest, run_case

UFUNCS = "scipy.special._ufuncs"


class Raise(importlib.abc.MetaPathFinder):
    def __init__(self, error):
        self.error = error

    def find_spec(self, name, path, target=None):
        if name == UFUNCS and self.error is not None:
            error, self.error = self.error, None
            raise error
        return None


class Hidden(types.ModuleType):
    def __getattribute__(self, name):
        if name == "ndtri_exp" and "scipy.special" not in sys.modules:
            raise AttributeError(name)
        return super().__getattribute__(name)


class Hide(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    def find_spec(self, name, path, target=None):
        if name != UFUNCS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        self.real, spec.loader = spec.loader, self
        return spec

    def create_module(self, spec):
        return self.real.create_module(spec)

    def exec_module(self, module):
        self.real.exec_module(module)
        module.__class__ = Hidden


fault = sys.argv[3]
sys.meta_path.insert(0, Hide() if fault == "hide" else Raise(
    ImportError("no ufuncs") if fault == "import" else RuntimeError("broken")))
raised = None
try:
    special = distributions._special()
except RuntimeError as error:
    raised = str(error)
    stub_left = "scipy.special" in sys.modules
    special = distributions._special()
package = sys.modules.get("scipy.special")
report = {"raised": raised, "package": special is package,
          "full": hasattr(package, "logsumexp")}
if raised:
    report["stub_left"] = stub_left
from hrtwist.cli import main
report["ccdf"] = _digest(run_case(main, "ccdf", CONFIGS["ln2-db"], 1, sys.argv[4]))
print(json.dumps(report))
"""
    LATER = HEAD + """
special = distributions._special()
loaded = "scipy.special" in sys.modules
import scipy.special
print(json.dumps([loaded, special is sys.modules["scipy.special._ufuncs"],
                  distributions._special() is special,
                  special.log_ndtr is scipy.special.log_ndtr,
                  special.ndtri_exp is scipy.special.ndtri_exp]))
"""
    # scipy itself loaded, so that neither thread waits on its import, the
    # ufunc module's import slowed, and the second thread started 0.1 s after
    # the first, while the first's stub is in place
    RACE = HEAD + """
import threading, time
import scipy


class Slow(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy.special._ufuncs":
            time.sleep(0.2)
        return None


sys.meta_path.insert(0, Slow())
start = threading.Barrier(2)
out = [None, None]


def first(k):
    start.wait()
    time.sleep(0.1 * k)
    special = distributions._special()
    out[k] = [special.__name__, hasattr(special, "ndtri_exp")]


threads = [threading.Thread(target=first, args=(k,)) for k in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps(out))
"""
    LOADED = HEAD + """
import scipy.special
before = dict(sys.modules)
special = distributions._special()
print(json.dumps([special is scipy.special, dict(sys.modules) == before]))
"""

    @staticmethod
    def fresh(script, *argv):
        tests = Path(__file__).resolve().parent
        proc = subprocess.run(
            [sys.executable, "-c", script, str(Path(hrtwist.__file__).resolve().parents[1]),
             str(tests), *argv], capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("fault", ["import", "hide", "raise"])
    def test_fallback_is_the_package_and_writes_the_same_bytes(self, tmp_path, fault):
        from hrtwist.cli import main
        from outputs_digest import CONFIGS, _digest, run_case

        (tmp_path / "here").mkdir()
        (tmp_path / "fresh").mkdir()
        here = _digest(run_case(main, "ccdf", CONFIGS["ln2-db"], 1, tmp_path / "here"))
        report = self.fresh(self.FAULT, fault, str(tmp_path / "fresh"))
        assert report["ccdf"] == here
        if fault == "raise":
            # the error passes up, the stub does not stay, and the next
            # call loads the ufunc module alone
            assert report["raised"] == "broken" and not report["stub_left"]
            assert not report["package"] and not report["full"]
        else:
            assert report["raised"] is None
            assert report["package"] and report["full"]

    def test_package_imported_later_holds_the_same_ufuncs(self):
        assert self.fresh(self.LATER) == [False, True, True, True, True]

    def test_first_call_from_two_threads(self):
        assert self.fresh(self.RACE) == [["scipy.special._ufuncs", True]] * 2

    def test_loaded_package_is_used_as_it_is(self):
        assert self.fresh(self.LOADED) == [True, True]


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

    def test_each_sigma_peak_is_solved_once(self):
        # more distinct sigmas than a default lru_cache holds: a bounded
        # cache evicts each one before the second pass asks for it again
        laws = [Lognormal.from_db(0.0, 4.0 + 0.01 * i) for i in range(130)]
        _hazard_peak_z.cache_clear()
        first = [law.concavity_onset() for law in laws]
        second = [law.concavity_onset() for law in laws]
        assert second == first
        info = _hazard_peak_z.cache_info()
        assert (info.misses, info.hits) == (130, 130)

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
        assert component(spec) == weibull_half

    def test_round_trip_lognormal_db(self, lognormal_6db):
        spec = {"family": "lognormal", "mu_db": 0.0, "sigma_db": 6.0}
        assert component(spec) == lognormal_6db
        # one spelling per component: the natural pair beside it is an error
        both = dict(spec, mu=0.0, sigma=lognormal_6db.sigma)
        with pytest.raises(ConfigError, match="mu_db"):
            component(both)

    @pytest.mark.parametrize("spec, key", [
        ({"family": "weibull", "shape": 0.5, "scale": 1.0, "cont": 2}, "cont"),
        ({"family": "lognormal", "mu": 0.0, "sigma": 1.0, "shape": 0.5}, "shape"),
    ])
    def test_unknown_field(self, spec, key):
        with pytest.raises(ConfigError, match=key):
            component(spec)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            component({"family": "pareto", "alpha": 2.0})
