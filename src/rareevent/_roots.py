"""Brent's root finder for the scalar solves, without scipy.optimize, whose
import also loads scipy.sparse, scipy.spatial and scipy.fft."""

import math


def _brent(f, a, b, xtol, rtol=4 * 2.0 ** -52, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) differ in sign: scipy's C
    `brentq` step for step, so the same root after the same calls of f.

    Raises ValueError on a same-sign bracket or a NaN value of f, and
    RuntimeError when maxiter iterations do not converge.
    """
    def call(x):
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf     # bisect, unless interpolation takes a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:            # C's inf or NaN step from a zero divisor bisects too
                if xpre == xblk:    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:               # inverse quadratic
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")
