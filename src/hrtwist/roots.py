"""Bracketed scalar root finding.

`find_root` is Brent's method (Brent, *Algorithms for Minimization
Without Derivatives*, 1973, ch. 4): inverse quadratic interpolation and
secant steps, each checked against bisection, so it converges on every
bracket and needs few evaluations on smooth functions.  The step rules
and the stopping test are those of the C routine scipy ships, in the same
floating-point order, so both return the same root for the same function.
"""
from __future__ import annotations

import math

from .errors import ParameterError

_RTOL = 4.0 * 2.0 ** -52
_MAXITER = 100


def find_root(f, lo: float, hi: float, xtol: float,
              f_lo: float | None = None, f_hi: float | None = None) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign.

    A caller that already holds f(lo) or f(hi) passes it as f_lo or f_hi,
    and f is not evaluated there again.  Returns once the bracket around
    the root is narrower than xtol + 4 eps |x|.  Raises ParameterError
    when f is NaN, the signs do not differ, or 100 steps do not converge.
    """
    def value(x, fx=None):
        fx = float(f(x) if fx is None else fx)
        if math.isnan(fx):
            raise ParameterError(f"root finding met NaN at x={x}")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre, f_lo), value(xcur, f_hi)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ParameterError(f"no sign change of f over [{lo}, {hi}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise ParameterError(
        f"root finding did not converge in {_MAXITER} steps on [{lo}, {hi}]")
