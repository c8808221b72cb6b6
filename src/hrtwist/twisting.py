"""Hazard-rate twisting: the importance-sampling change of measure.

Twisting a component by theta in [0, 1) rescales its hazard rate by
(1 - theta), which raises its survival function to the power (1 - theta)
and therefore makes the sampling law heavier-tailed.  theta = 0 leaves
the base law untouched.

The estimators' sampling core inverts this law inline;
`TwistedDistribution` is its stand-alone reference form.
"""
from __future__ import annotations

import numpy as np

from .distributions import Distribution
from .errors import DomainError, ParameterError


class TwistedDistribution(Distribution):
    """A base component paired with a twisting amount theta in [0, 1)."""

    def __init__(self, base: Distribution, theta: float):
        theta = float(theta)
        if not (0.0 <= theta < 1.0):
            raise ParameterError(f"theta must lie in [0, 1), got {theta}")
        self.base = base
        self.theta = theta

    def log_pdf(self, x):
        th = self.theta
        return (np.log1p(-th) + self.base.log_pdf(x)
                + th * self.base.hazard_function(x))

    def log_survival(self, x):
        return (1.0 - self.theta) * self.base.log_survival(x)

    # defined here rather than through quantile_from_log_sf: tracing
    # wraps the method found in this class's own __dict__
    def quantile(self, y):
        """Exact inversion of the twisted CDF.

        The twisted survival target is (1-y)^(1/(1-theta)); its log,
        log1p(-y)/(1-theta), stays representable for y arbitrarily close
        to 1, so the inversion runs entirely in log-survival space and
        never underflows.
        """
        y = np.asarray(y, dtype=float)
        if np.any((y <= 0.0) | (y >= 1.0)):
            raise DomainError("probability must lie in (0, 1)")
        log_sf = np.log1p(-y) / (1.0 - self.theta)
        return self.base.quantile_from_log_sf(log_sf)

    def __repr__(self):
        return f"TwistedDistribution({self.base!r}, theta={self.theta})"
