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

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy import optimize, special

from .errors import ModelError, RootFindingError, SpecError
from .quadrature import compensated_exp, quad

FINITE_ACTIVITY = "finite_activity"
INFINITE_ACTIVITY = "infinite_activity"
INTEGRABLE = "integrable_small_jumps"
NON_INTEGRABLE = "non_integrable_small_jumps"

# admissibility bound on int (1 ^ theta^2) Pi(dtheta)
ADMISSIBILITY_BOUND = 1e12


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Jump measure given by a density plus derived analytic anchors.

    ``tail(theta)`` is the upper tail mass Pi(theta, inf); it is supplied
    analytically by the family constructors and computed by quadrature with
    cached anchors for tabulated densities.  ``exponent_jump_part`` is the
    jump contribution to psi in closed form, valid for the complex arguments
    of the Laplace inversion contour; every family supplies one.
    """

    density: Callable[[float], float]
    tail: Callable[[float], float]
    activity: str
    variation_part: str
    total_mass_near_zero: float          # int_0^1 theta^2 Pi(dtheta)
    mean_small: float                    # int_0^1 theta Pi(dtheta); inf if non-integrable
    mean_above_one: float                # int_1^inf theta Pi(dtheta)
    exponent_jump_part: Callable
    exponent_jump_deriv: Optional[Callable] = None
    mass_between: Optional[Callable] = None   # (lo, hi) -> int theta Pi(dtheta)
    mass2_below: Optional[Callable] = None    # eps -> int_0^eps theta^2 Pi(dtheta)
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.total_mass_near_zero + self.tail(1.0) > ADMISSIBILITY_BOUND:
            raise ModelError("int (1 ^ theta^2) Pi(dtheta) exceeds the admissibility bound")
        # tail must be non-increasing and vanish at infinity
        grid = np.array([1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0])
        vals = np.array([self.tail(t) for t in grid])
        if np.any(np.diff(vals) > 1e-12 * (1.0 + vals[:-1])):
            raise ModelError("tail(theta) is not non-increasing")
        if vals[-1] > max(1e-6, 1e-9 * vals[0]):
            raise ModelError("tail(theta) does not vanish at infinity")
        if self.activity == FINITE_ACTIVITY and not math.isfinite(self.tail(0.0)):
            raise ModelError("finite activity declared but total mass is infinite")

    def small_mass_between(self, lo, hi):
        """int_lo^hi theta Pi(dtheta) (finite for lo > 0)."""
        if self.mass_between is not None:
            return self.mass_between(lo, hi)
        if hi <= lo:
            return 0.0
        val, _ = quad(lambda t: t * self.density(t), lo, hi)
        return val

    def squared_mass_below(self, eps):
        """int_0^eps theta^2 Pi(dtheta)."""
        if self.mass2_below is not None:
            return self.mass2_below(eps)
        return np.vectorize(
            lambda e: quad(lambda t: t * t * float(self.density(t)), 0.0, e)[0])(eps)


def _zero_tail(theta):
    return 0.0


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
        lo = max(lo, 0.0)
        if hi <= lo:
            return 0.0
        return c * rho ** (alpha - 1.0) * (
            _upper_gamma(1.0 - alpha, rho * max(lo, 1e-300)) - _upper_gamma(1.0 - alpha, rho * hi))

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


def _exp_segment_integral(d, u, v):
    """int_u^v e^{d t} dt, stable for small |d|; d may be a complex ndarray."""
    d = np.asarray(d)
    span = v - u
    out = np.empty(d.shape, dtype=complex if np.iscomplexobj(d) else float)
    small = np.abs(d) * span < 1e-8
    out[small] = span * (1.0 + 0.5 * d[small] * span)
    db = d[~small]
    out[~small] = np.exp(db * u) * np.expm1(db * span) / db
    return out


def _t_exp_segment_integral(b, s, t):
    """int_s^t x e^{b x} dx for real scalar b."""
    if abs(b) * (t - s) < 1e-8:
        return 0.5 * (t * t - s * s) + b * (t ** 3 - s ** 3) / 3.0
    return ((t * b - 1.0) * math.exp(b * t) - (s * b - 1.0) * math.exp(b * s)) / b ** 2


def table_jumps(theta, values):
    """Density given by sample pairs, log-linearly interpolated, zero outside.

    The support must stay away from zero, so tabulated measures always have
    finite activity; tails are integrated once per segment and cached.  The
    interpolation makes the density piecewise exponential, so the jump part
    of psi has a closed form per segment (valid for complex arguments, which
    the Laplace-inversion contour needs).
    """
    theta = np.asarray(theta, dtype=float)
    values = np.asarray(values, dtype=float)
    if theta.ndim != 1 or theta.shape != values.shape or theta.size < 2:
        raise ModelError("table measure needs matching 1-d theta/density arrays (>= 2 points)")
    if np.any(np.diff(theta) <= 0) or theta[0] <= 0:
        raise ModelError("theta samples must be strictly increasing and positive")
    if np.any(values < 0) or np.all(values == 0):
        raise ModelError("density samples must be nonnegative and not all zero")
    logv = np.log(np.maximum(values, 1e-300))
    slope = np.diff(logv) / np.diff(theta)
    amp = np.exp(logv[:-1] - slope * theta[:-1])

    def jump_part(lam):
        lam = np.asarray(lam)
        total = np.zeros(lam.shape, dtype=complex if np.iscomplexobj(lam) else float)
        for i in range(theta.size - 1):
            u, v, b, c = theta[i], theta[i + 1], slope[i], amp[i]
            # int e^{-lam t} pi(t) dt - int pi(t) dt + lam int_{t<=1} t pi(t) dt
            total += c * _exp_segment_integral(b - lam, u, v)
            total -= c * float(_exp_segment_integral(np.asarray(b), u, v))
            hi = min(v, 1.0)
            if hi > u:
                total += lam * c * _t_exp_segment_integral(b, u, hi)
        return total.item() if total.ndim == 0 else total

    def density(t):
        t = np.asarray(t, dtype=float)
        out = np.exp(np.interp(t, theta, logv))
        return np.where((t < theta[0]) | (t > theta[-1]), 0.0, out)

    # cached tail anchors at the sample points (integrated from the top)
    seg = np.zeros(theta.size)
    for i in range(theta.size - 1):
        seg[i], _ = quad(lambda t: float(density(t)), theta[i], theta[i + 1],
                         epsabs=1e-13, epsrel=1e-11)
    anchors = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])[:theta.size]

    def tail(t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            if ti <= theta[0]:
                out[i] = anchors[0]
            elif ti >= theta[-1]:
                out[i] = 0.0
            else:
                j = np.searchsorted(theta, ti, side="right") - 1
                part, _ = quad(lambda u: float(density(u)), ti, theta[j + 1],
                               epsabs=1e-13, epsrel=1e-11)
                out[i] = part + anchors[j + 1]
        return out[0] if scalar else out

    mean_small, _ = quad(lambda t: t * float(density(t)), 0.0, min(1.0, theta[-1]))
    mean_above = 0.0
    if theta[-1] > 1.0:
        mean_above, _ = quad(lambda t: t * float(density(t)), 1.0, theta[-1])
    m2_one, _ = quad(lambda t: t * t * float(density(t)), 0.0, min(1.0, theta[-1]))

    return LevyMeasureSpec(
        density=density,
        tail=tail,
        activity=FINITE_ACTIVITY,
        variation_part=INTEGRABLE,
        total_mass_near_zero=m2_one,
        mean_small=mean_small,
        mean_above_one=mean_above,
        exponent_jump_part=jump_part,
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
    base = model.gamma + model.sigma ** 2 * lam
    jd = model.measure.exponent_jump_deriv
    if jd is not None:
        return base + jd(lam)
    dens = model.measure.density
    v1, _ = quad(lambda t: t * (1.0 - math.exp(-lam * t)) * float(dens(t)), 0.0, 1.0)
    v2, _ = quad(lambda t: -t * math.exp(-lam * t) * float(dens(t)) if lam * t < 700 else 0.0,
                 1.0, np.inf)
    return base + v1 + v2


def right_inverse_phi(model, q):
    """Phi(q) = sup{lam >= 0 : psi(lam) = q}, the largest root of the convex psi.

    Needed to place the Laplace-inversion contour and for scale-function
    growth rates.  The bracketed root is polished by Newton so that
    psi(Phi(q)) = q to 1e-12 relative.
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
    phi = optimize.brentq(lambda l: psi(l) - q, lo, hi, rtol=1e-14, maxiter=200)
    for _ in range(3):
        resid = psi(phi) - q
        slope = laplace_exponent_derivative(model, phi)
        if slope <= 0:
            break
        step = resid / slope
        phi -= step
        if abs(step) < 1e-16 * max(1.0, phi):
            break
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

def measure_from_dict(spec):
    try:
        family = spec["family"]
    except (KeyError, TypeError):
        raise SpecError("missing measure family", field="measure.family")
    try:
        if family == "none":
            return no_jumps()
        if family == "exponential":
            return exponential_jumps(spec["intensity"], spec["decay"])
        if family == "tempered_stable":
            return tempered_stable_jumps(spec["c"], spec["alpha"], spec["rho"])
        if family == "table":
            rule = spec.get("interpolation", "log-linear")
            if rule != "log-linear":
                raise SpecError(f"unsupported interpolation rule {rule!r}",
                                field="measure[table].interpolation")
            return table_jumps(spec["theta"], spec["pi"])
    except KeyError as exc:
        raise SpecError(f"missing parameter {exc}", field=f"measure[{family}]")
    except ModelError as exc:
        raise SpecError(str(exc), field=f"measure[{family}]")
    raise SpecError(f"unknown measure family {family!r}", field="measure.family")


def model_from_dict(spec):
    """Build a LevyTriplet from {'gamma':..., 'sigma':..., 'measure': {...}}."""
    if not isinstance(spec, dict):
        raise SpecError("model spec must be an object", field="model")
    for key in ("gamma", "sigma", "measure"):
        if key not in spec:
            raise SpecError(f"missing field {key!r}", field="model")
    measure = measure_from_dict(spec["measure"])
    try:
        return LevyTriplet(gamma=float(spec["gamma"]), sigma=float(spec["sigma"]),
                           measure=measure)
    except ModelError as exc:
        raise SpecError(str(exc), field="model")


def model_from_json(text):
    return model_from_dict(json.loads(text))
