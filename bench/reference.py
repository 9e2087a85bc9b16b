"""Independent high-precision references, computed with mpmath.

W^(q)(x) = e^{Phi(q) x} * L^{-1}[1 / (psi(s + Phi(q)) - q)](x), inverted by
Talbot's contour at 30 digits.  psi is rebuilt here from the model's
parameters in closed form, so the reference shares no code with the
package's exponent or inversion.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 30


def psi_mp(model):
    """The Laplace exponent of a catalog model as an mpmath function."""
    gamma, sigma = mp.mpf(model.gamma), mp.mpf(model.sigma)
    family, p = model.measure.family, model.measure.params
    if family == "none":
        def jump(lam):
            return 0
    elif family == "exponential":
        eta, rho = mp.mpf(p["intensity"]), mp.mpf(p["decay"])
        mean_small = eta / rho * (1 - mp.exp(-rho) * (1 + rho))

        def jump(lam):
            return -eta * lam / (rho + lam) + lam * mean_small
    elif family == "tempered_stable":
        c, alpha, rho = mp.mpf(p["c"]), mp.mpf(p["alpha"]), mp.mpf(p["rho"])
        kappa1 = c * rho ** (alpha - 1) * mp.gammainc(1 - alpha, rho)
        g = mp.gamma(-alpha)

        def jump(lam):
            return (c * g * ((lam + rho) ** alpha - rho ** alpha
                             - alpha * rho ** (alpha - 1) * lam) - lam * kappa1)
    else:
        raise ValueError(f"no reference exponent for family {family!r}")
    return lambda lam: gamma * lam + sigma * sigma * lam * lam / 2 + jump(lam)


def scale_w(model, q, xs, phi_guess):
    """W^(q) at each point of ``xs`` (floats), by Talbot inversion."""
    with mp.workdps(DIGITS):
        psi = psi_mp(model)
        qm = mp.mpf(q)
        phi = mp.findroot(lambda lam: psi(lam) - qm, mp.mpf(phi_guess))

        def transform(s):
            return 1 / (psi(s + phi) - qm)

        return [float(mp.exp(phi * x) * mp.invertlaplace(transform, x, method="talbot"))
                for x in xs]
