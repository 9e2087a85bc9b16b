"""Thin wrappers around adaptive quadrature used throughout the package.

All identity evaluations subtract near-equal quantities, so the default
tolerances are tight (1e-12 absolute).  QUADPACK warnings about roundoff are
tolerated as long as the reported error estimate stays below the caller's
panel tolerance; anything worse raises ``NumericalAccuracyError``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

from .errors import NumericalAccuracyError

DEFAULT_EPSABS = 1e-12
DEFAULT_EPSREL = 1e-10
# per-panel budget before a quadrature result is considered failed
PANEL_TOLERANCE = 1e-9


def quad(f, lo, hi, *, epsabs=DEFAULT_EPSABS, epsrel=DEFAULT_EPSREL,
         points=None, limit=200, panel_tol=PANEL_TOLERANCE):
    """Adaptive Gauss-Kronrod integration of ``f`` over [lo, hi].

    Returns ``(value, error_estimate)``.  ``points`` marks interior break
    locations (kinks/jumps of the integrand); infinite upper limits are
    supported (``points`` is ignored there, split beforehand if needed).
    """
    if lo == hi:
        return 0.0, 0.0
    kwargs = dict(epsabs=epsabs, epsrel=epsrel, limit=limit)
    if points is not None and np.isfinite(hi):
        pts = sorted(p for p in points if lo < p < hi)
        if pts:
            kwargs["points"] = pts
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, lo, hi, **kwargs)
    if not math.isfinite(val) or err > max(panel_tol, abs(val) * 1e-6):
        raise NumericalAccuracyError(
            f"quadrature on [{lo:g}, {hi}] did not converge", achieved=err)
    return val, err


def quad_singular_left(f, lo, hi, *, points=None, **kwargs):
    """Integrate ``f`` on [lo, hi] with an integrable singularity at ``lo``.

    Uses the substitution z = lo + u^2, which turns any (z-lo)^(-s) blow-up
    with s <= 1/2 into a bounded integrand and softens stronger ones; this is
    the graded-mesh treatment for scale-function derivative blow-ups and for
    jump-tail factors diverging at the lower endpoint.  ``points`` are break
    locations in the original coordinate.
    """
    umax = math.sqrt(hi - lo)

    def g(u):
        return 2.0 * u * f(lo + u * u)

    upoints = None
    if points is not None:
        upoints = [math.sqrt(p - lo) for p in points if lo < p < hi]
    return quad(g, 0.0, umax, points=upoints, **kwargs)


def quad_log(f, lo, hi, **kwargs):
    """Integrate ``f`` on [lo, hi], 0 < lo < hi, after the substitution t = e^s.

    Appropriate when the integrand varies over many orders of magnitude near
    the lower endpoint (power-law singular jump densities evaluated on
    intervals starting near 0).
    """
    def g(s):
        t = math.exp(s)
        return t * f(t)

    return quad(g, math.log(lo), math.log(hi), **kwargs)


def compensated_exp(u):
    """exp(-u) - 1 + u for real u, accurate for small |u|."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    out = np.empty_like(u)
    us = u[small]
    # series sum_{k>=2} (-u)^k / k!
    out[small] = us * us / 2.0 * (1.0 - us / 3.0 * (1.0 - us / 4.0 * (1.0 - us / 5.0)))
    ub = u[~small]
    out[~small] = np.expm1(-ub) + ub
    if out.ndim == 0:
        return out.item()
    return out
