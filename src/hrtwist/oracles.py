"""Independent brute-force reference for validating the sampling runs.

Nothing here shares a code path with importance sampling or naive Monte
Carlo: the tail of a two-component sum comes from tanh-sinh quadrature of
the convolution in log space.  A single component's tail is its closed-form
survival function, `Distribution.survival`.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .distributions import Distribution
from .errors import OracleConvergenceError, ParameterError

# the oracle promises 1e-10 relative and checks tanh-sinh's error estimate
# against it; the stopping rule aims well inside that, since it bounds the
# error estimate, not the error
_LOG_TOL = math.log(1e-10)
_LOG_RTOL = math.log(1e-13)


def tail_convolution_2(dist1: Distribution, dist2: Distribution,
                       gamma: float) -> float:
    """P(X1 + X2 > gamma) by tanh-sinh quadrature of the convolution.

    Split at gamma / 2: either both components exceed it, or one lies
    below it and the other makes up the rest:

        S1(g/2) S2(g/2) + int_0^{g/2} f1(x) S2(g - x) dx
                        + int_0^{g/2} f2(y) S1(g - y) dy.

    Both integrals run in one vectorised tanh-sinh call on log integrands,
    so a density spike at 0 sits on an endpoint and thresholds far in the
    joint tail (values hundreds of decades below 1) lose no precision.
    """
    # imported on first call: only validate integrates, and scipy.integrate
    # loads scipy.optimize, which would slow every command's start-up
    from scipy.integrate import tanhsinh

    if gamma <= 0.0:
        raise ParameterError("gamma must be positive")
    half = 0.5 * gamma

    def log_integrand(x, first):
        # an abscissa can round onto the endpoint 0, whose value tanhsinh
        # ignores but still asks for
        x, first = np.broadcast_arrays(np.maximum(x, np.finfo(float).tiny), first)
        out = np.empty(x.shape)
        a, b = x[first], x[~first]
        out[first] = dist1.log_pdf(a) + dist2.log_survival(gamma - a)
        out[~first] = dist2.log_pdf(b) + dist1.log_survival(gamma - b)
        return out

    res = tanhsinh(log_integrand, 0.0, half, args=(np.array([True, False]),),
                   log=True, rtol=_LOG_RTOL)
    if np.any(res.status != 0):
        raise OracleConvergenceError(
            f"convolution quadrature did not converge (status "
            f"{res.status.tolist()}) at gamma={gamma}")
    corner = float(dist1.log_survival(half) + dist2.log_survival(half))
    log_result = float(logsumexp(np.append(res.integral, corner)))
    log_err = float(logsumexp(res.error))
    log_tol = _LOG_TOL + log_result
    if log_err > log_tol:
        raise OracleConvergenceError(
            f"convolution quadrature error {math.exp(log_err):.3e} exceeds "
            f"tolerance {math.exp(log_tol):.3e} at gamma={gamma}")
    return math.exp(log_result)
