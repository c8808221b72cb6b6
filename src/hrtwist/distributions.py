"""Component distribution families with numerically stable tail math.

Weibull (shape < 1) and Log-normal components expose log density, log
survival, its inverse, hazard rate and cumulative hazard, all usable deep
in the far tail: survival-related quantities are computed in log space so
that no intermediate ever forms ``1 - F(x)`` directly.

Only the log-normal family needs special functions, scipy's ``log_ndtr``
and ``ndtri_exp``.  `_special` loads them on the first log-normal
evaluation, not at import, so a run whose laws are all Weibull never
loads scipy.  It loads only ``scipy.special._ufuncs``, the compiled module
that holds both, and not the ``scipy.special`` package: the package's
``__init__`` runs its array-API layer, which pulls in ``numpy.f2py``,
``numpy.testing``, ``unittest`` and ``concurrent.futures``, costs as much
as the rest of the CLI's start-up, and serves no command.  Where the
package is already loaded it is used as it is, and where the ufunc module
cannot be loaded alone the package is imported; either way the ufuncs are
the same objects.  A config with a log-normal law loads them while it is
parsed, where the law's concavity onset is checked.  Each lazy value
here, the ufunc module and each sigma's hazard-rate peak, is made once
and kept for the life of the process.
"""
from __future__ import annotations

import importlib.util
import sys
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ParameterError
from .roots import find_root

# decibel <-> natural-log scaling for log-normal parameters
DB_SCALE = np.log(10.0) / 10.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def db_to_linear(value_db):
    """Convert a decibel quantity to linear scale, 10^(value/10); inf on overflow."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


# ---------------------------------------------------------------------------
# standard-normal tail utilities
# ---------------------------------------------------------------------------

_SPECIAL = None
_SPECIAL_LOCK = threading.Lock()  # the first use may come from two sampling threads


def _special():
    """A module holding scipy's ``log_ndtr`` and ``ndtri_exp``, loaded on the
    first log-normal use: ``scipy.special._ufuncs``, or the package itself
    where it is already loaded or the ufunc module cannot be loaded alone."""
    global _SPECIAL
    if _SPECIAL is None:
        with _SPECIAL_LOCK:
            if _SPECIAL is None:
                _SPECIAL = _load_special()
    return _SPECIAL


def _load_special():
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]
    try:
        # a stub of the package, its spec unrun, lets the submodule load
        # without the package's __init__; it never stays in sys.modules
        stub = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
        sys.modules["scipy.special"] = stub
        try:
            ufuncs = importlib.import_module("scipy.special._ufuncs")
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
        if hasattr(ufuncs, "log_ndtr") and hasattr(ufuncs, "ndtri_exp"):
            return ufuncs
    except (ImportError, AttributeError):  # another scipy layout
        pass
    from scipy import special

    return special


def _log_mills(z):
    """log of phi(z) / (1 - Phi(z)), the standard-normal hazard rate."""
    return -0.5 * z * z - _LOG_SQRT_2PI - _special().log_ndtr(-z)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

# one reduction and no np.any wrappers: the solver checks small arrays
# often, and there the wrappers cost more than the comparisons
def _require_positive(x):
    x = np.asarray(x, dtype=float)
    if not ((x > 0.0) & (x < np.inf)).all():
        raise ParameterError("x must be positive and finite")
    return x


def _require_nonnegative(x):
    x = np.asarray(x, dtype=float)
    if not ((x >= 0.0) & (x < np.inf)).all():
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


def _ratio(x, scale):
    """x / scale, and its log where that quotient leaves the float range.

    Returns (t, out, log_t).  `out` marks the x whose quotient is 0 or inf,
    and there t is 1 and log_t is log x - log scale; when it marks none,
    `out` and log_t are None.  So the quotient keeps its bits wherever it
    is finite and positive, as `Lognormal.log_pdf` keeps its product's.
    """
    with np.errstate(over="ignore"):
        t = x / scale
    inside = (t > 0.0) & (t < np.inf)
    if inside.all():
        return t, None, None
    return np.where(inside, t, 1.0), ~inside, np.log(x) - np.log(scale)


def _log(t, out, log_t):
    """log(x / scale) from `_ratio`."""
    return np.log(t) if out is None else np.where(out, log_t, np.log(t))


def _log_quotient(k, scale):
    """log(k / scale), as log k - log scale where that quotient is 0 or inf."""
    q = k / scale
    return np.log(q) if 0.0 < q < np.inf else np.log(k) - np.log(scale)


def _power(t, out, log_t, p):
    """(x / scale)^p from `_ratio`: exp(p log_t) where `out` marks, which is
    inf or 0 only where the power itself leaves the float range."""
    if out is None:
        return t ** p
    with np.errstate(over="ignore"):
        return np.where(out, np.exp(p * log_t), t ** p)


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
        k, b = self.shape, self.scale
        r = _ratio(_require_positive(x), b)
        return _log_quotient(k, b) + (k - 1.0) * _log(*r) - _power(*r, k)

    def log_survival(self, x):
        return -_power(*_ratio(_require_positive(x), self.scale), self.shape)

    def hazard_rate(self, x):
        k, b = self.shape, self.scale
        r = _ratio(_require_positive(x), b)
        with np.errstate(over="ignore"):  # a rate past the float range is inf
            if 0.0 < k / b < np.inf:
                return (k / b) * _power(*r, k - 1.0)
            return np.exp(_log_quotient(k, b) + (k - 1.0) * _log(*r))

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


@cache  # a root solve that depends on sigma only; the solver asks often
def _hazard_peak_z(sigma: float) -> float:
    """Standard score z at which the Lognormal(mu, sigma) hazard rate peaks.

    In z = (log x - mu) / sigma the log hazard rate is
    log_mills(z) - sigma z - mu - log(sigma).  It is strictly concave with
    slope mills(z) - z - sigma, so it rises up to the root of that slope
    and falls after it.  The root comes from `find_root` on a bracket where
    the slope changes sign, to 1e-15 in z.
    """
    def slope(z):
        return np.exp(_log_mills(z)) - z - sigma

    # slope(-sigma - 1) > 1, and mills(z) - z < 1/z for z > 0 makes
    # slope(1/sigma + 1) < 0, unless rounding hides a sigma that small
    lo, hi = -sigma - 1.0, 1.0 / sigma + 1.0
    if np.sign(slope(lo)) == np.sign(slope(hi)):
        raise ParameterError(f"sigma {sigma} too small to place the hazard-rate peak")
    return find_root(slope, lo, hi, xtol=1e-15)


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
        # the product overflows past x = 1.8e308 / (sigma sqrt(2 pi)); there
        # only, its log is taken as the sum of its factors' logs
        with np.errstate(over="ignore"):
            log_scaled = np.log(x * self.sigma * np.sqrt(2.0 * np.pi))
        if not (log_scaled < np.inf).all():
            log_scaled = np.where(log_scaled < np.inf, log_scaled,
                                  np.log(x) + np.log(self.sigma) + _LOG_SQRT_2PI)
        return -log_scaled - 0.5 * z * z

    def log_survival(self, x):
        x = _require_positive(x)
        return _special().log_ndtr(-self._z(x))

    def quantile_from_log_sf(self, log_sf):
        log_sf = np.asarray(log_sf, dtype=float)
        # ndtri_exp(log_sf) is minus the normal score whose survival is exp(log_sf)
        with np.errstate(over="ignore"):  # x past the float range is inf
            return np.exp(self.mu - self.sigma * _special().ndtri_exp(log_sf))

    def concavity_onset(self) -> float:
        # Lambda'' = lambda', so Lambda turns concave at the hazard-rate peak
        with np.errstate(over="ignore"):
            onset = float(np.exp(self.mu + self.sigma * _hazard_peak_z(self.sigma)))
        if not 0.0 < onset < np.inf:
            raise ParameterError(f"the hazard-rate peak of Log-normal mu {self.mu}, "
                                 f"sigma {self.sigma} lies outside the float range")
        return onset

    def rising_branch(self, rate):
        """x <= concavity_onset() at which the hazard rate equals rate.

        Vectorised over rate, and each element takes the Newton steps it
        would take alone.  A rate at or above the peak hazard rate, or
        within a relative 1e-12 of it in the log, maps to the peak.
        """
        sigma = self.sigma
        z_peak = _hazard_peak_z(sigma)
        top = _log_mills(z_peak) - sigma * z_peak
        level = np.log(np.asarray(rate, dtype=float)) + self.mu + np.log(sigma)
        z = np.full(level.shape, z_peak)
        # the slope vanishes at the peak, so Newton steps crawl near it
        todo = np.flatnonzero(level < top - 1e-12 * max(1.0, abs(top)))
        level = level.flat[todo]
        # log_mills(z) <= log(2 phi(z)) for z <= 0, so this z is at or below
        # the root; Newton steps on a concave increasing function then rise
        # monotonically to the root
        c = level + _LOG_SQRT_2PI - np.log(2.0)
        zt = -sigma - np.sqrt(np.maximum(sigma * sigma - 2.0 * c, 0.0))
        for _ in range(60):
            if not todo.size:
                break
            lm = _log_mills(zt)
            step = (lm - sigma * zt - level) / (np.exp(lm) - zt - sigma)
            zt = zt - step
            # a point is done once its step is within tolerance or does not
            # rise: only rounding noise makes a step fall
            done = -step <= 1e-15 * (1.0 + np.abs(zt))
            if done.any():
                z.flat[todo[done]] = zt[done]
                rest = ~done
                todo, zt, level = todo[rest], zt[rest], level[rest]
        z.flat[todo] = zt
        return np.exp(self.mu + sigma * z)
