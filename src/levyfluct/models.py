"""Spectrally negative Levy process models.

A process is specified by its triplet (gamma, sigma, Pi): linear drift,
Gaussian coefficient and jump measure.  Jumps are downward only; following
the usual convention for this class, the measure is recorded on the positive
half-line, so ``density(theta)`` is the density of the absolute jump size.

The Laplace exponent is

    psi(lam) = gamma*lam + sigma^2*lam^2/2
               + int_0^inf (exp(-lam*theta) - 1 + lam*theta*1{theta<=1}) Pi(dtheta)

and all identities downstream are written in terms of psi, its right inverse
Phi(q) and the scale functions derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import special

from .errors import ModelError, RootFindingError, SpecError
from .quadrature import compensated_exp, exp_moments, quad

FINITE_ACTIVITY = "finite_activity"
INFINITE_ACTIVITY = "infinite_activity"
INTEGRABLE = "integrable_small_jumps"
NON_INTEGRABLE = "non_integrable_small_jumps"

# admissibility bound on int (1 ^ theta^2) Pi(dtheta)
ADMISSIBILITY_BOUND = 1e12


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure given by a density plus its integrals in closed form.

    Every family supplies: the upper tail mass ``tail(theta)`` =
    Pi(theta, inf); ``exponent_jump_part``, the jump contribution to psi,
    valid for the complex arguments of the Laplace inversion contour; its
    derivative ``exponent_jump_deriv`` for real arguments;
    ``mass_between(lo, hi)`` = int_lo^hi theta Pi(dtheta), zero where
    hi <= lo, and ``mass2_below(eps)`` = int_0^eps theta^2 Pi(dtheta).
    ``tail``, ``exponent_jump_part``, ``mass_between`` and ``mass2_below``
    take arrays.
    """

    density: Callable[[float], float]
    tail: Callable[[float], float]
    activity: str
    variation_part: str
    total_mass_near_zero: float          # int_0^1 theta^2 Pi(dtheta)
    mean_small: float                    # int_0^1 theta Pi(dtheta); inf if non-integrable
    mean_above_one: float                # int_1^inf theta Pi(dtheta)
    exponent_jump_part: Callable
    exponent_jump_deriv: Callable
    mass_between: Callable               # (lo, hi) -> int_lo^hi theta Pi(dtheta)
    mass2_below: Callable                # eps -> int_0^eps theta^2 Pi(dtheta)
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.total_mass_near_zero + self.tail(1.0) > ADMISSIBILITY_BOUND:
            raise ModelError("int (1 ^ theta^2) Pi(dtheta) exceeds the admissibility bound")
        # tail must be non-increasing and vanish at infinity; the grid runs
        # far past 100, where the support of a table may still go on
        vals = self.tail(np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1e4, 1e6]))
        if np.any(np.diff(vals) > 1e-12 * (1.0 + vals[:-1])):
            raise ModelError("tail(theta) is not non-increasing")
        if vals[-1] > max(1e-6, 1e-9 * vals[0]):
            raise ModelError("tail(theta) does not vanish at infinity")
        if self.activity == FINITE_ACTIVITY and not math.isfinite(self.tail(0.0)):
            raise ModelError("finite activity declared but total mass is infinite")


def _check_finite(**params):
    for name, val in params.items():
        if not math.isfinite(val):
            raise ModelError(f"{name} must be finite, got {val}")


def _zero_tail(theta):
    return np.zeros(np.shape(theta)) if np.ndim(theta) else 0.0


def no_jumps():
    """The zero measure (purely Gaussian/drift models)."""
    return LevyMeasureSpec(
        density=lambda t: 0.0,
        tail=_zero_tail,
        activity=FINITE_ACTIVITY,
        variation_part=INTEGRABLE,
        total_mass_near_zero=0.0,
        mean_small=0.0,
        mean_above_one=0.0,
        exponent_jump_part=lambda lam: 0.0 * lam,
        exponent_jump_deriv=lambda lam: 0.0 * lam,
        mass_between=lambda lo, hi: 0.0,
        mass2_below=lambda eps: 0.0,
        family="none",
    )


def exponential_jumps(intensity, decay):
    """Compound Poisson downward jumps: rate ``intensity``, sizes Exp(``decay``)."""
    _check_finite(intensity=intensity, decay=decay)
    if intensity <= 0 or decay <= 0:
        raise ModelError("intensity and decay must be positive")
    eta, rho = float(intensity), float(decay)
    mean_small = (eta / rho) * (1.0 - math.exp(-rho) * (1.0 + rho))
    mean_above = eta * math.exp(-rho) * (1.0 + 1.0 / rho)
    m2_below_one = eta * (2.0 / rho ** 2) * special.gammainc(3, rho)

    def density(t):
        return eta * rho * np.exp(-rho * t)

    def tail(t):
        return eta * np.exp(-rho * t)

    def jump_part(lam):
        # int (e^{-lam t} - 1) Pi(dt) + lam * int_0^1 t Pi(dt)
        return -eta * lam / (rho + lam) + lam * mean_small

    def jump_deriv(lam):
        return -eta * rho / (rho + lam) ** 2 + mean_small

    def mass_between(lo, hi):
        hi = np.maximum(hi, lo)
        return (eta / rho) * (
            np.exp(-rho * lo) * (1.0 + rho * lo) - np.exp(-rho * hi) * (1.0 + rho * hi))

    def mass2_below(eps):
        return eta * (2.0 / rho ** 2) * special.gammainc(3, rho * eps)

    return LevyMeasureSpec(
        density=density,
        tail=tail,
        activity=FINITE_ACTIVITY,
        variation_part=INTEGRABLE,
        total_mass_near_zero=m2_below_one,
        mean_small=mean_small,
        mean_above_one=mean_above,
        exponent_jump_part=jump_part,
        exponent_jump_deriv=jump_deriv,
        mass_between=mass_between,
        mass2_below=mass2_below,
        family="exponential",
        params={"intensity": eta, "decay": rho},
    )


def _upper_gamma(a, x):
    """Unnormalised upper incomplete gamma Gamma(a, x) for a in (-2, 1), x > 0.

    scipy only exposes positive orders; negative orders follow from the
    recursion Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a.
    """
    a = float(a)
    x = np.asarray(x, dtype=float)
    a_up = a
    shifts = []
    while a_up <= 0.0:
        shifts.append(a_up)
        a_up += 1.0
    val = special.gammaincc(a_up, x) * special.gamma(a_up)
    for ai in reversed(shifts):
        val = (val - x ** ai * np.exp(-x)) / ai
    return val


def tempered_stable_jumps(c, alpha, rho):
    """One-sided tempered stable density c * theta^(-1-alpha) * exp(-rho*theta).

    For alpha in (1, 2) the small jumps are non-integrable, giving unbounded
    variation paths even without a Gaussian part.
    """
    _check_finite(c=c, alpha=alpha, rho=rho)
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ModelError("alpha must lie in (0,1) or (1,2)")
    if c <= 0 or rho <= 0:
        raise ModelError("c and rho must be positive")
    c, alpha, rho = float(c), float(alpha), float(rho)
    g_neg_alpha = special.gamma(2.0 - alpha) / (alpha * (alpha - 1.0))  # Gamma(-alpha)
    integrable = alpha < 1.0
    kappa1 = c * rho ** (alpha - 1.0) * _upper_gamma(1.0 - alpha, rho)  # int_1^inf t Pi(dt)
    m2_one = c * rho ** (alpha - 2.0) * special.gammainc(2.0 - alpha, rho) * special.gamma(2.0 - alpha)
    if integrable:
        mean_small = c * rho ** (alpha - 1.0) * (
            special.gamma(1.0 - alpha) - _upper_gamma(1.0 - alpha, rho))
    else:
        mean_small = math.inf

    def density(t):
        return c * t ** (-1.0 - alpha) * np.exp(-rho * t)

    def tail(t):
        t = np.asarray(t, dtype=float)
        vals = c * rho ** alpha * _upper_gamma(-alpha, rho * np.maximum(t, 1e-300))
        vals = np.where(t <= 0, np.inf, vals)
        return vals.item() if vals.ndim == 0 else vals

    def full_comp(lam):
        # int (e^{-lam t} - 1 + lam t) Pi(dt), valid for Re(lam) > -rho
        base = np.asarray(lam) + rho
        return c * g_neg_alpha * (base ** alpha - rho ** alpha - alpha * rho ** (alpha - 1.0) * lam)

    def jump_part(lam):
        return full_comp(lam) - lam * kappa1

    def jump_deriv(lam):
        base = np.asarray(lam) + rho
        return c * g_neg_alpha * alpha * (base ** (alpha - 1.0) - rho ** (alpha - 1.0)) - kappa1

    def mass_between(lo, hi):
        lo = np.maximum(lo, 1e-300)
        hi = np.maximum(hi, lo)
        return c * rho ** (alpha - 1.0) * (
            _upper_gamma(1.0 - alpha, rho * lo) - _upper_gamma(1.0 - alpha, rho * hi))

    def mass2_below(eps):
        return c * rho ** (alpha - 2.0) * special.gammainc(2.0 - alpha, rho * eps) * special.gamma(2.0 - alpha)

    return LevyMeasureSpec(
        density=density,
        tail=tail,
        activity=INFINITE_ACTIVITY,
        variation_part=INTEGRABLE if integrable else NON_INTEGRABLE,
        total_mass_near_zero=m2_one,
        mean_small=mean_small,
        mean_above_one=kappa1,
        exponent_jump_part=jump_part,
        exponent_jump_deriv=jump_deriv,
        mass_between=mass_between,
        mass2_below=mass2_below,
        family="tempered_stable",
        params={"c": c, "alpha": alpha, "rho": rho},
    )


def _exp_segment_integral(d, span):
    """int_0^span e^{d s} ds, stable for small |d|; d may be a complex ndarray."""
    d = np.asarray(d)
    out = np.empty(d.shape, dtype=complex if np.iscomplexobj(d) else float)
    small = np.abs(d) * span < 1e-8
    out[small] = span * (1.0 + 0.5 * d[small] * span)
    db = d[~small]
    out[~small] = np.expm1(db * span) / db
    return out


def table_jumps(theta, values):
    """Density given by sample pairs, log-linearly interpolated, zero outside.

    The support must stay away from zero, so tabulated measures always have
    finite activity.  The interpolation makes the density piecewise
    exponential, pi(t) = pi_i e^{b_i (t - theta_i)} on segment i, so every
    integral of t^k e^{-lam t} pi(t) over part of a segment is a sum of the
    moments ``exp_moments(c, hi - lo)``, c = -|b_i - lam|, measured from the
    end where the integrand is largest: from lo when it falls and from hi when
    it rises, so no exponential grows and a steep rise loses no digits.
    The jump part of psi keeps one complex exponential term per segment, for
    the Laplace-inversion contour.
    """
    theta = np.asarray(theta, dtype=float)
    values = np.asarray(values, dtype=float)
    if theta.ndim != 1 or theta.shape != values.shape or theta.size < 2:
        raise ModelError("table measure needs matching 1-d theta/density arrays (>= 2 points)")
    if not (np.isfinite(theta).all() and np.isfinite(values).all()):
        raise ModelError("theta and density samples must be finite")
    if np.any(np.diff(theta) <= 0) or theta[0] <= 0:
        raise ModelError("theta samples must be strictly increasing and positive")
    if np.any(values < 0) or np.all(values == 0):
        raise ModelError("density samples must be nonnegative and not all zero")
    logv = np.log(np.maximum(values, 1e-300))
    left, right = theta[:-1], theta[1:]
    slope = np.diff(logv) / (right - left)

    def moments(lo, hi, lam=0.0):
        """int_lo^hi t^k e^{-lam t} pi(t) dt for k = 0, 1, 2; lo, hi and lam broadcast."""
        lo = np.clip(np.asarray(lo, dtype=float)[..., None], left, right)
        hi = np.clip(np.asarray(hi, dtype=float)[..., None], lo, right)
        lam = np.asarray(lam, dtype=float)[..., None]
        # t = a + sgn u for u in [0, hi - lo], a the end where the integrand peaks
        rise = slope - lam > 0
        a, sgn = np.where(rise, hi, lo), np.where(rise, -1.0, 1.0)
        i0, i1, i2, _ = exp_moments(sgn * (slope - lam), hi - lo)
        p = np.exp(logv[:-1] + slope * (a - left) - lam * a)
        return (np.sum(p * i0, axis=-1), np.sum(p * (a * i0 + sgn * i1), axis=-1),
                np.sum(p * (a * a * i0 + 2.0 * sgn * a * i1 + i2), axis=-1))

    def upper_part(j, s):
        """Pi(s, theta_{j+1}) for s on segment j, measured from its larger end."""
        rise = slope[j] > 0
        start = np.where(rise, logv[j + 1], logv[j] + slope[j] * (s - theta[j]))
        return np.exp(start) * exp_moments(np.where(rise, -slope[j], slope[j]),
                                           theta[j + 1] - s)[0]

    # tail anchors Pi(theta_i, inf), summed from the top
    seg = upper_part(np.arange(theta.size - 1), left)
    anchors = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    total_mass = anchors[0]
    _, mean_small, m2_one = moments(0.0, 1.0)
    mean_above = moments(1.0, np.inf)[1]

    def density(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(np.interp(t, theta, logv))
        return np.where((t < theta[0]) | (t > theta[-1]), 0.0, out)

    def tail(t):
        # the anchor above t plus the part of t's segment above it
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(theta, t, side="right") - 1, 0, theta.size - 2)
        out = anchors[j + 1] + upper_part(j, np.clip(t, theta[0], theta[-1]))
        return out.item() if out.ndim == 0 else out

    def jump_part(lam):
        # int e^{-lam t} pi(t) dt - int pi(t) dt + lam int_{t<=1} t pi(t) dt
        lam = np.asarray(lam)
        total = np.zeros(lam.shape, dtype=complex if np.iscomplexobj(lam) else float)
        for lv, u, v, b in zip(logv[:-1], left, right, slope):
            total += np.exp(lv - lam * u) * _exp_segment_integral(b - lam, v - u)
        total = total - total_mass + lam * mean_small
        return total.item() if total.ndim == 0 else total

    def jump_deriv(lam):
        return mean_small - moments(0.0, np.inf, lam)[1]

    return LevyMeasureSpec(
        density=density,
        tail=tail,
        activity=FINITE_ACTIVITY,
        variation_part=INTEGRABLE,
        total_mass_near_zero=float(m2_one),
        mean_small=float(mean_small),
        mean_above_one=float(mean_above),
        exponent_jump_part=jump_part,
        exponent_jump_deriv=jump_deriv,
        mass_between=lambda lo, hi: moments(lo, hi)[1],
        mass2_below=lambda eps: moments(0.0, eps)[2],
        family="table",
        params={"theta": theta.tolist(), "pi": values.tolist()},
    )


@dataclass(frozen=True)
class LevyTriplet:
    """The process model (gamma, sigma, Pi).

    Construction rejects the negative of a subordinator: sigma = 0 with
    integrable small jumps and nonpositive natural drift
    gamma + int_0^1 theta Pi(dtheta) means decreasing paths, which the
    identities exclude globally.
    """

    gamma: float
    sigma: float
    measure: LevyMeasureSpec

    def __post_init__(self):
        _check_finite(gamma=self.gamma, sigma=self.sigma)
        if self.sigma < 0:
            raise ModelError("sigma must be nonnegative")
        if (self.sigma == 0.0
                and self.measure.variation_part == INTEGRABLE
                and self.gamma + self.measure.mean_small <= 0.0):
            raise ModelError("decreasing paths: the process would be the negative of a subordinator")

    @property
    def natural_drift(self):
        """gamma + int_0^1 theta Pi(dtheta); inf for non-integrable small jumps."""
        return self.gamma + self.measure.mean_small

    @property
    def mean_slope(self):
        """psi'(0+) = E[X_1] = gamma - int_1^inf theta Pi(dtheta)."""
        return self.gamma - self.measure.mean_above_one

    def shifted(self, delta):
        """The process X_t - delta*t (same jumps and Gaussian part)."""
        return replace(self, gamma=self.gamma - delta)


class _Same:
    """A key part equal only to itself; holding the object keeps its id from reuse."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _Same) and other.obj is self.obj

    def __hash__(self):
        return id(self.obj)


def model_key(model):
    """A hashable key, equal for models with equal parameters.

    The parameters are gamma, sigma, the measure's family and its ``params``
    (lists and arrays as tuples), which determine a measure of a named family;
    ids are not used, since they are reused after garbage collection.  A
    ``custom`` measure has no parameters that determine it, so it keys on the
    measure object: two custom measures never share a key.
    """
    meas = model.measure
    if meas.family == "custom":
        params = _Same(meas)
    else:
        params = tuple((k, tuple(v) if isinstance(v, (list, np.ndarray)) else v)
                       for k, v in sorted(meas.params.items()))
    return (model.gamma, model.sigma, meas.family, params)


def path_variation(model):
    """'bounded' or 'unbounded' according to sigma and small-jump integrability."""
    if model.sigma == 0.0 and model.measure.variation_part == INTEGRABLE:
        return "bounded"
    return "unbounded"


def check_exit(a, b, q, x):
    """The killed two-sided exit rule: finite a < b, a <= x <= b and q >= 0."""
    if not all(math.isfinite(v) for v in (a, b, x, q)):
        raise ModelError("a, b, x and q must be finite")
    if not a < b:
        raise ModelError("need a < b")
    if not a <= x <= b:
        raise ModelError("need a <= x <= b")
    if q < 0:
        raise ModelError("need q >= 0")


def check_refraction(model, delta, c, a, b):
    """The refraction rule: a < c < b, finite delta >= 0, delta below the natural drift.

    delta = 0 is tolerated for degeneracy checks; a positive delta must stay
    below gamma + int_0^1 th Pi(dth) when small jumps are integrable, or the
    refracted process is not well posed.
    """
    if not a < c < b:
        raise ModelError("need a < c < b")
    if not 0.0 <= delta < math.inf:
        raise ModelError("need finite delta >= 0")
    if (delta > 0 and model.measure.variation_part == INTEGRABLE
            and delta >= model.natural_drift):
        raise ModelError("need delta < gamma + int_0^1 th Pi(dth)")


# default split for the Taylor-compensated panel in the quadrature path
SMALL_JUMP_SPLIT = 1e-6


def _jump_integral_quadrature(measure, lam, eps=SMALL_JUMP_SPLIT):
    """int (e^{-lam t} - 1 + lam t 1{t<=1}) Pi(dt) by adaptive panels.

    Below ``eps`` the integrand cancels to O(t^2), so that panel is summed as
    a short series in lam against the moments int_0^eps t^k Pi(dt).
    """
    dens = measure.density
    total, err = 0.0, 0.0
    if measure.family != "none":
        # series sum_{k>=2} (-1)^k lam^k m_k / k! on [0, eps]
        for k in range(2, 7):
            mk, ek = quad(lambda t: t ** k * float(dens(t)), 0.0, eps,
                          epsabs=1e-16, epsrel=1e-10)
            total += ((-1) ** k) * lam ** k * mk / math.factorial(k)
            err += ek * abs(lam) ** k / math.factorial(k)
        v, e = quad(lambda t: float(compensated_exp(lam * t)) * float(dens(t)), eps, 1.0,
                    epsabs=1e-14, epsrel=1e-11)
        total += v
        err += e
        v, e = quad(lambda t: (math.exp(-lam * t) - 1.0) * float(dens(t)) if lam * t < 700
                    else -float(dens(t)), 1.0, np.inf, epsabs=1e-14, epsrel=1e-11)
        total += v
        err += e
    return total, err


def laplace_exponent(model, lam, method="auto"):
    """psi(lam); complex arguments are accepted on the analytic path.

    ``method``: 'auto' uses the family's analytic jump integral, any other
    value ('quadrature') the adaptive-panel evaluation (used for
    cross-validation, real arguments only).
    """
    if isinstance(lam, (float, int)) and lam == 0:
        return 0.0
    base = model.gamma * lam + 0.5 * model.sigma ** 2 * lam * lam
    if method == "auto":
        return base + model.measure.exponent_jump_part(lam)
    val, _ = _jump_integral_quadrature(model.measure, float(lam))
    return base + val


def laplace_exponent_derivative(model, lam):
    """psi'(lam) = gamma + sigma^2 lam + d/dlam of the jump integral."""
    return model.gamma + model.sigma ** 2 * lam + model.measure.exponent_jump_deriv(lam)


def brentq(f, xa, xb, xtol=2e-12, rtol=4 * np.finfo(float).eps, maxiter=100):
    """A root of f in [xa, xb], where f changes sign, by Brent's (1973) method.

    Step for step scipy's C ``brentq`` (inverse quadratic extrapolation or
    secant, else bisection), so a root agrees with ``scipy.optimize.brentq``
    to the last bit at the same ``xtol``, ``rtol`` and ``maxiter``.  A NaN
    value raises ``ValueError``; no sign change or no convergence within
    ``maxiter`` steps raises ``RootFindingError``.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootFindingError(f"f({xa}) and f({xb}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RootFindingError(f"Brent's method did not converge in {maxiter} steps")


def right_inverse_phi(model, q):
    """Phi(q) = sup{lam >= 0 : psi(lam) = q}, the largest root of the convex psi.

    Needed to place the Laplace-inversion contour and for scale-function
    growth rates.  The bracketed root is polished by Newton so that
    psi(Phi(q)) = q to 1e-12 relative to max(1, q, Phi psi'(Phi)); the last
    term is psi's own rounding scale where it is steep, so the bound asks for
    Phi to 1e-12 relative there.  A root that misses it raises
    RootFindingError.
    """
    if q < 0:
        raise ModelError("q must be nonnegative")
    psi = lambda l: laplace_exponent(model, l)
    if q == 0.0:
        if model.mean_slope >= 0.0:
            return 0.0
        lo = 1.0
        for _ in range(80):
            if psi(lo) < 0.0:
                break
            lo *= 0.5
        else:
            raise RootFindingError("could not locate the negative dip of psi")
    else:
        lo = 0.0
    hi = max(2.0 * lo, 1.0)
    for _ in range(200):
        if psi(hi) > q:
            break
        hi *= 2.0
    else:
        raise RootFindingError("bracket expansion failed for psi(lam) = q")
    phi = brentq(lambda l: psi(l) - q, lo, hi, rtol=1e-14, maxiter=200)
    for _ in range(3):
        resid = psi(phi) - q
        slope = laplace_exponent_derivative(model, phi)
        if slope <= 0:
            break
        step = resid / slope
        phi -= step
        if abs(step) < 1e-16 * max(1.0, phi):
            break
    resid = float(psi(phi)) - q
    if not abs(resid) <= 1e-12 * max(1.0, q, phi * laplace_exponent_derivative(model, phi)):
        raise RootFindingError(f"Phi({q:g}) = {phi:g} misses psi(Phi) = q by {resid:.3g}")
    return phi


# ---------------------------------------------------------------------------
# canonical parametric families used as fixtures throughout the test-suite
# ---------------------------------------------------------------------------

def brownian_motion(drift=0.25, sigma=1.0):
    """Brownian motion with drift: psi(lam) = drift*lam + sigma^2 lam^2 / 2."""
    return LevyTriplet(gamma=float(drift), sigma=float(sigma), measure=no_jumps())


def cramer_lundberg(premium=1.5, intensity=1.0, jump_mean=1.0):
    """Classical risk process: premium rate minus compound Poisson Exp claims.

    Bounded variation; psi(lam) = premium*lam - intensity*lam/(decay+lam).
    """
    decay = 1.0 / float(jump_mean)
    measure = exponential_jumps(intensity, decay)
    gamma = float(premium) - measure.mean_small
    return LevyTriplet(gamma=gamma, sigma=0.0, measure=measure)


def jump_diffusion(rate=0.3, sigma=0.6, intensity=0.8, decay=1.5):
    """Gaussian part plus compound Poisson Exp jumps.

    ``rate`` is the effective linear coefficient, i.e.
    psi(lam) = rate*lam + sigma^2 lam^2/2 - intensity*lam/(decay+lam).
    """
    measure = exponential_jumps(intensity, decay)
    gamma = float(rate) - measure.mean_small
    return LevyTriplet(gamma=gamma, sigma=float(sigma), measure=measure)


def tempered_stable_process(gamma=0.35, c=0.08, alpha=1.5, rho=1.0):
    """Unbounded variation, sigma = 0: tempered one-sided stable jump density."""
    return LevyTriplet(gamma=float(gamma), sigma=0.0,
                       measure=tempered_stable_jumps(c, alpha, rho))


def canonical_models():
    """Catalog of fixture models covering every path-variation regime."""
    return {
        "brownian": brownian_motion(),
        "cramer_lundberg": cramer_lundberg(),
        "jump_diffusion": jump_diffusion(),
        "tempered_stable": tempered_stable_process(),
    }


# ---------------------------------------------------------------------------
# JSON model specs
# ---------------------------------------------------------------------------

_REQUIRED = object()


def spec_field(block, key, where=None, default=_REQUIRED):
    """``block[key]``, or ``default`` where it is missing; ``where`` is the dotted
    name of ``block`` (None at the top), under which a block that is not a JSON
    object, or a missing key with no default, is a ``SpecError``."""
    if not isinstance(block, dict):
        raise SpecError("must be an object", field=where or "spec")
    if key not in block:
        if default is _REQUIRED:
            raise SpecError(f"missing field {key!r}", field=where or "spec")
        return default
    return block[key]


def spec_number(block, key, where=None, default=_REQUIRED, integral=False, array=False):
    """``spec_field(block, key, where, default)`` as a float, an int where
    ``integral``, or a float array where ``array``.

    A null where the default is None gives None.  Any other value that is not
    a finite JSON number (a bool, a string, NaN, +-inf, an integer too large
    for a float) is a ``SpecError`` naming the field.
    """
    val = spec_field(block, key, where, default)
    if val is None and default is None:
        return None
    name = key if where is None else f"{where}.{key}"
    items = val if array and isinstance(val, list) else [val]
    try:
        ok = all(not isinstance(v, bool) and isinstance(v, (int, float)) and math.isfinite(v)
                 for v in items)
    except OverflowError:
        raise SpecError("must be a finite number, got an integer too large for a float",
                        field=name) from None
    if not ok or (array and items is not val) or (integral and not float(val).is_integer()):
        kind = ("an array of finite numbers" if array
                else "a finite integer" if integral else "a finite number")
        raise SpecError(f"must be {kind}, got {val!r}", field=name)
    if array:
        return np.array(val, dtype=float)
    return int(val) if integral else float(val)


_FAMILIES = {
    "none": (no_jumps, ()),
    "exponential": (exponential_jumps, ("intensity", "decay")),
    "tempered_stable": (tempered_stable_jumps, ("c", "alpha", "rho")),
    "table": (table_jumps, ("theta", "pi")),
}


def measure_from_dict(spec):
    family = spec_field(spec, "family", "measure", default=None)
    if not (isinstance(family, str) and family in _FAMILIES):
        raise SpecError("missing measure family" if family is None
                        else f"unknown measure family {family!r}", field="measure.family")
    where = f"measure[{family}]"
    rule = spec_field(spec, "interpolation", where, default="log-linear")
    if family == "table" and rule != "log-linear":
        raise SpecError(f"unsupported interpolation rule {rule!r}", field=f"{where}.interpolation")
    build, names = _FAMILIES[family]
    args = [spec_number(spec, name, where, array=family == "table") for name in names]
    try:
        return build(*args)
    except ModelError as exc:
        raise SpecError(str(exc), field=where)


def model_from_dict(spec):
    """Build a LevyTriplet from {'gamma':..., 'sigma':..., 'measure': {...}}."""
    gamma, sigma = (spec_number(spec, key, "model") for key in ("gamma", "sigma"))
    measure = measure_from_dict(spec_field(spec, "measure", "model"))
    try:
        return LevyTriplet(gamma=gamma, sigma=sigma, measure=measure)
    except ModelError as exc:
        raise SpecError(str(exc), field="model")
