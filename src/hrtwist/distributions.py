"""Component distribution families with numerically stable tail math.

Weibull (shape < 1) and Log-normal components expose log density, log
survival, its inverse, hazard rate and cumulative hazard, all usable deep
in the far tail: survival-related quantities are computed in log space so
that no intermediate ever forms ``1 - F(x)`` directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import ParameterError

# decibel <-> natural-log scaling for log-normal parameters
DB_SCALE = np.log(10.0) / 10.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def db_to_linear(value_db):
    """Convert a decibel quantity to linear scale, 10^(value/10); inf on overflow."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0.0):
        raise ParameterError("linear value must be positive to express in dB")
    return 10.0 * np.log10(value)


# ---------------------------------------------------------------------------
# standard-normal tail utilities
# ---------------------------------------------------------------------------

def _log_mills(z):
    """log of phi(z) / (1 - Phi(z)), the standard-normal hazard rate."""
    return -0.5 * z * z - _LOG_SQRT_2PI - special.log_ndtr(-z)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def _require_positive(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(~np.isfinite(x)):
        raise ParameterError("x must be positive and finite")
    return x


def _require_nonnegative(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(~np.isfinite(x)):
        raise ParameterError("x must be nonnegative and finite")
    return x


class Distribution:
    """Common surface shared by the component families.

    Subclasses implement ``log_pdf``, ``log_survival`` and
    ``quantile_from_log_sf``; everything else derives from those three so
    the identities exp(log_pdf) = hazard_rate * exp(-hazard_function) and
    hazard_function = -log_survival hold by construction.
    """

    family: str

    def log_pdf(self, x):
        raise NotImplementedError

    def log_survival(self, x):
        raise NotImplementedError

    def quantile_from_log_sf(self, log_sf):
        """Inverse of log_survival: x with log_survival(x) = log_sf <= 0."""
        raise NotImplementedError

    def concavity_onset(self) -> float:
        raise NotImplementedError

    def survival(self, x):
        return np.exp(self.log_survival(x))

    def hazard_rate(self, x):
        return np.exp(self.log_pdf(x) - self.log_survival(x))

    def hazard_function(self, x):
        x = _require_nonnegative(x)
        out = -self.log_survival(np.maximum(x, np.finfo(float).tiny))
        return np.where(x == 0.0, 0.0, out)


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull component; subexponential when shape < 1."""

    shape: float
    scale: float

    family = "weibull"

    def __post_init__(self):
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "scale", float(self.scale))
        if not (self.shape > 0.0 and np.isfinite(self.shape)):
            raise ParameterError(f"Weibull shape must be positive, got {self.shape}")
        if not (self.scale > 0.0 and np.isfinite(self.scale)):
            raise ParameterError(f"Weibull scale must be positive, got {self.scale}")

    def log_pdf(self, x):
        x = _require_positive(x)
        k, b = self.shape, self.scale
        t = x / b
        return np.log(k / b) + (k - 1.0) * np.log(t) - t ** k

    def log_survival(self, x):
        x = _require_positive(x)
        return -((x / self.scale) ** self.shape)

    def hazard_rate(self, x):
        x = _require_positive(x)
        k, b = self.shape, self.scale
        return (k / b) * (x / b) ** (k - 1.0)

    def quantile_from_log_sf(self, log_sf):
        log_sf = np.asarray(log_sf, dtype=float)
        with np.errstate(over="ignore"):  # x past the float range is inf
            return self.scale * (-log_sf) ** (1.0 / self.shape)

    def concavity_onset(self) -> float:
        # (x/b)^k is concave on all of (0, inf) iff k < 1
        if self.shape >= 1.0:
            raise ParameterError(
                "hazard function not eventually concave under this family "
                f"restriction (Weibull shape {self.shape} >= 1)")
        return 0.0


@lru_cache  # a root solve that depends on sigma only; the solver asks often
def _hazard_peak_z(sigma: float) -> float:
    """Standard score z at which the Lognormal(mu, sigma) hazard rate peaks.

    In z = (log x - mu) / sigma the log hazard rate is
    log_mills(z) - sigma z - mu - log(sigma).  It is strictly concave with
    slope mills(z) - z - sigma, so it rises up to the root of that slope
    and falls after it.
    """
    def slope(z):
        return np.exp(_log_mills(z)) - z - sigma

    # slope(-sigma - 1) > 1, and mills(z) - z < 1/z for z > 0 makes
    # slope(1/sigma + 1) < 0, unless rounding hides a sigma that small
    lo, hi = -sigma - 1.0, 1.0 / sigma + 1.0
    if np.sign(slope(lo)) == np.sign(slope(hi)):
        raise ParameterError(f"sigma {sigma} too small to place the hazard-rate peak")
    return brentq(slope, lo, hi, xtol=1e-15)


@dataclass(frozen=True)
class Lognormal(Distribution):
    """Log-normal component: log X ~ Normal(mu, sigma^2)."""

    mu: float
    sigma: float

    family = "lognormal"

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not np.isfinite(self.mu):
            raise ParameterError(f"Log-normal mu must be finite, got {self.mu}")
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise ParameterError(f"Log-normal sigma must be positive, got {self.sigma}")

    @classmethod
    def from_db(cls, mu_db: float, sigma_db: float) -> "Lognormal":
        return cls(DB_SCALE * mu_db, DB_SCALE * sigma_db)

    def _z(self, x):
        return (np.log(x) - self.mu) / self.sigma

    def log_pdf(self, x):
        x = _require_positive(x)
        z = self._z(x)
        return -np.log(x * self.sigma * np.sqrt(2.0 * np.pi)) - 0.5 * z * z

    def log_survival(self, x):
        x = _require_positive(x)
        return special.log_ndtr(-self._z(x))

    def quantile_from_log_sf(self, log_sf):
        log_sf = np.asarray(log_sf, dtype=float)
        # ndtri_exp(log_sf) is minus the normal score whose survival is exp(log_sf)
        with np.errstate(over="ignore"):  # x past the float range is inf
            return np.exp(self.mu - self.sigma * special.ndtri_exp(log_sf))

    def concavity_onset(self) -> float:
        # Lambda'' = lambda', so Lambda turns concave at the hazard-rate peak
        return float(np.exp(self.mu + self.sigma * _hazard_peak_z(self.sigma)))

    def rising_branch(self, rate):
        """x <= concavity_onset() at which the hazard rate equals rate.

        Vectorised over rate.  A rate at or above the peak hazard rate maps
        to a point just below the peak.
        """
        sigma = self.sigma
        z_peak = _hazard_peak_z(sigma)
        top = _log_mills(z_peak) - sigma * z_peak
        level = np.log(np.asarray(rate, dtype=float)) + self.mu + np.log(sigma)
        # keep the root strictly below the peak, where the slope is positive
        level = np.minimum(level, top - 1e-12 * max(1.0, abs(top)))
        # log_mills(z) <= log(2 phi(z)) for z <= 0, so this z is at or below
        # the root; Newton steps on a concave increasing function then rise
        # monotonically to the root
        c = level + _LOG_SQRT_2PI - np.log(2.0)
        z = -sigma - np.sqrt(np.maximum(sigma * sigma - 2.0 * c, 0.0))
        for _ in range(60):
            lm = _log_mills(z)
            step = (lm - sigma * z - level) / (np.exp(lm) - z - sigma)
            z = z - step
            if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
                break
        return np.exp(self.mu + sigma * z)


def _known_fields(d: dict, *fields):
    unknown = sorted(set(d) - {"family", *fields})
    if unknown:
        raise ParameterError(f"{d['family']} component has unknown field(s) {unknown}")


def distribution_from_dict(d: dict) -> Distribution:
    """Construct a component from its serialized form.

    A lognormal takes `mu` and `sigma`, or both `mu_db` and `sigma_db`
    with any natural value given beside them agreeing with them."""
    family = d.get("family")
    if family == "weibull":
        _known_fields(d, "shape", "scale")
        try:
            return Weibull(d["shape"], d["scale"])
        except KeyError as exc:
            raise ParameterError(f"weibull component missing field {exc}") from exc
    if family == "lognormal":
        _known_fields(d, "mu", "sigma", "mu_db", "sigma_db")
        try:
            if "mu_db" not in d and "sigma_db" not in d:
                return Lognormal(d["mu"], d["sigma"])
            ln = Lognormal.from_db(d["mu_db"], d["sigma_db"])
        except KeyError as exc:
            raise ParameterError(f"lognormal component missing field {exc}") from exc
        natural = Lognormal(d.get("mu", ln.mu), d.get("sigma", ln.sigma))
        if abs(natural.mu - ln.mu) > 1e-12 * max(1.0, abs(ln.mu)):
            raise ParameterError(
                f"mu={natural.mu} inconsistent with mu_db={d['mu_db']}")
        if abs(natural.sigma - ln.sigma) > 1e-12 * ln.sigma:
            raise ParameterError(
                f"sigma={natural.sigma} inconsistent with sigma_db={d['sigma_db']}")
        return ln
    raise ParameterError(f"unknown distribution family: {family!r}")
