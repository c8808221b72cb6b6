"""Independent brute-force reference for validating the sampling runs.

Nothing here shares a code path with importance sampling or naive Monte
Carlo: the tail of a two-component sum comes from tanh-sinh quadrature of
the convolution in log space (Takahasi & Mori, Publ. RIMS 9, 1974).  A
single component's tail is its closed-form survival function,
`Distribution.survival`.

Nodes: an integral over [0, L] becomes a trapezoid sum in t over
|t| <= 7.  The node at t sits L / (1 + exp(pi sinh |t|)) from the end its
sign points to, and weighs L h (pi / 4) cosh t / cosh^2((pi / 2) sinh t).
Both are kept as logs, so a node next to 0 keeps its precision even where
its distance underflows; the integrand is then taken at the least normal
float, with the node's true weight.  The outermost nodes lie exp(-1722) L
from their end, below the least normal float for any float L, so a
density spike at 0 as slow as Weibull shape 0.05 is not cut short.
Level k has step h = 2^-k and adds only the nodes that level k - 1
lacks; each level's nodes are computed once, when a call first needs
them.

Stopping rule: from level 3 on, the run stops once the tail changes by
less than 1e-12 relative from one level to the next, and raises
`OracleConvergenceError` when level 12 has not got there.  The error
falls about quadratically from level to level, so the last change
overstates the error of the finer level.  The error estimate is that
change plus the share of the tail that lies below the least normal
float, where no node can look: F1(tiny) S2(gamma - tiny) and its
mirror.  For a Weibull law F(tiny) is about tiny^shape, above 1e-10 for
shapes below about 0.033.  The tail is returned only if the estimate
meets the promise of 1e-10 relative.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import Distribution
from .errors import OracleConvergenceError, ParameterError

_RTOL = 1e-10       # the promise, relative
_STOP_RTOL = 1e-12  # level-to-level change that ends the run
_MIN_LEVEL = 3
_LEVELS = 13        # levels 0 to 12
_T_MAX = 7.0


@functools.cache
def _nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Log distance to the nearer end, as a share of L, and log weight / L.

    Each node t > 0 of the level stands for the pair +-t, one near each
    end; t = 0, at level 0 only, is counted once on each side at half
    weight.
    """
    h = 0.5 ** level
    j = np.arange(1, int(_T_MAX / h) + 1, 2) if level else np.arange(_T_MAX + 1)
    t = j * h
    u = 0.5 * math.pi * np.sinh(t)
    tail = np.log1p(np.exp(-2.0 * u))
    log_share = -2.0 * u - tail
    log_cosh_u = u + tail - math.log(2.0)
    log_weight = math.log(0.25 * math.pi * h) + np.log(np.cosh(t)) - 2.0 * log_cosh_u
    if not level:
        log_weight[0] -= math.log(2.0)
    return log_share, np.concatenate([log_weight, log_weight])


def _log_sum(values: np.ndarray) -> float:
    """log(sum(exp(values))), shifted by the largest value."""
    top = float(values.max())
    if not top > -math.inf:
        return top
    return top + math.log(float(np.exp(values - top).sum()))


def _log_cdf(dist: Distribution, x: float) -> float:
    """log P(X <= x); -inf where it rounds to 0."""
    with np.errstate(divide="ignore"):
        return float(np.log(-np.expm1(dist.log_survival(x))))


def tail_convolution_2(dist1: Distribution, dist2: Distribution,
                       gamma: float) -> float:
    """P(X1 + X2 > gamma) by tanh-sinh quadrature of the convolution.

    Split at gamma / 2: either both components exceed it, or one lies
    below it and the other makes up the rest:

        S1(g/2) S2(g/2) + int_0^{g/2} f1(x) S2(g - x) dx
                        + int_0^{g/2} f2(y) S1(g - y) dy.

    Both integrals share their nodes and are summed as one, on log
    integrands, so a density spike at 0 sits on an endpoint and
    thresholds far in the joint tail (values hundreds of decades below 1)
    lose no precision.
    """
    if gamma <= 0.0:
        raise ParameterError("gamma must be positive")
    half = 0.5 * gamma
    log_half = math.log(half)
    tiny = np.finfo(float).tiny
    corner = float(dist1.log_survival(half) + dist2.log_survival(half))

    log_sum = log_tail = -math.inf
    for level in range(_LEVELS):
        log_share, log_weight = _nodes(level)
        near = np.exp(log_half + log_share)
        x = np.maximum(np.concatenate([near, half - near]), tiny)
        rest = gamma - x
        terms = np.logaddexp(dist1.log_pdf(x) + dist2.log_survival(rest),
                             dist2.log_pdf(x) + dist1.log_survival(rest))
        # halving h halves the old nodes' weights
        log_sum = float(np.logaddexp(log_sum - math.log(2.0),
                                     log_half + _log_sum(terms + log_weight)))
        previous, log_tail = log_tail, float(np.logaddexp(corner, log_sum))
        change = abs(log_tail - previous)
        if level >= _MIN_LEVEL and change < _STOP_RTOL:
            break
    else:
        raise OracleConvergenceError(
            f"convolution quadrature did not converge in {_LEVELS} levels "
            f"at gamma={gamma}")
    # the share of the tail below the least normal float, which no node
    # sees; capped at 1, which fails anyway
    log_below = float(np.logaddexp(
        _log_cdf(dist1, tiny) + dist2.log_survival(gamma - tiny),
        _log_cdf(dist2, tiny) + dist1.log_survival(gamma - tiny)))
    error = change + math.exp(min(log_below - log_tail, 0.0))
    if error > _RTOL:
        raise OracleConvergenceError(
            f"convolution quadrature error estimate {error:.3e} exceeds "
            f"tolerance {_RTOL:.0e} at gamma={gamma}")
    return math.exp(log_tail)
