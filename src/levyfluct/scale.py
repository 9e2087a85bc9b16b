"""Scale functions W^(q) and Z^(q).

W^(q) is the increasing function on [0, inf) whose Laplace transform is
1/(psi(lam) - q) for lam > Phi(q), extended by zero to the negative
half-line; Z^(q)(x) = 1 + q * int_0^x W^(q).

Two evaluation methods:

* ``closed_form`` - for models whose psi is rational (no jumps, or compound
  Poisson exponential jumps): partial fractions of 1/(psi - q) give W as a
  short sum of exponentials, with exact derivatives and antiderivative.
* ``laplace_inversion`` - Euler-summation (Bromwich contour) inversion of the
  exponentially tilted transform 1/(psi(s + Phi(q)) - q).  The tilted scale
  function is bounded and monotone, which keeps the inversion stable; values
  are cached on a geometric grid with shape-preserving interpolation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import binom

from . import models as _models
from .errors import ModelError, NumericalAccuracyError
# tests import the moment series from here under its old name
from .quadrature import exp_moments as _exp_moments, quad, quad_rows

_CLOSED_FORM_FAMILIES = ("none", "exponential")
# Euler summation settings, and the number of nodes in the inversion cache
INVERSION_PARAMS = dict(a_param=28.0, n_terms=60, m_euler=35)
GRID_NODES = 2048


def _euler_weights(m):
    w = binom(m, np.arange(m + 1))
    return w / w.sum()


def euler_inversion(transform, x, a_param=28.0, n_terms=60, m_euler=35):
    """Invert a Laplace transform at x > 0 by Euler-accelerated summation.

    ``transform`` must accept a complex ndarray.  The contour abscissa is
    a_param/(2x); the aliasing error is O(exp(-a_param)) times the scale of
    the inverted function, so the target function should be bounded (tilt
    exponentially growing functions first).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    if np.any(xs <= 0):
        raise ValueError("inversion points must be positive")
    k = np.arange(n_terms + m_euler + 1)
    s = (a_param + 2j * np.pi * k[None, :]) / (2.0 * xs[:, None])
    vals = np.real(transform(s)) * np.where(k % 2 == 0, 1.0, -1.0)[None, :]
    vals[:, 0] *= 0.5
    partial = np.cumsum(vals, axis=1)
    est = partial[:, n_terms:] @ _euler_weights(m_euler)
    out = est * math.exp(a_param / 2.0) / xs
    return out.item() if scalar else out


def _tilted_inverse(model, q, phi, x):
    """e^{-Phi(q) x} W^(q)(x) at x > 0: the inverse of 1/(psi(s + Phi(q)) - q)."""
    jp = model.measure.exponent_jump_part
    gamma, sig2 = model.gamma, model.sigma ** 2

    def transform(s):
        lam = s + phi
        return 1.0 / (gamma * lam + 0.5 * sig2 * lam * lam + jp(lam) - q)

    return euler_inversion(transform, x, **INVERSION_PARAMS)


class ScaleFunction:
    """Evaluator bundle for W^(q), its derivative and Z^(q) for one (model, q).

    Immutable after construction (the inversion cache is filled eagerly), so
    instances can be shared across threads.
    """

    def __init__(self, model, q, method="auto", x_max=10.0):
        if q < 0:
            raise ModelError("q must be nonnegative")
        self.model = model
        self.q = float(q)
        if method == "auto":
            method = ("closed_form" if model.measure.family in _CLOSED_FORM_FAMILIES
                      else "laplace_inversion")
        self.method = method
        self.phi = _models.right_inverse_phi(model, q)
        self.x_max = float(x_max)
        self.inversion_params = dict(INVERSION_PARAMS, grid_nodes=GRID_NODES)

        variation = _models.path_variation(model)
        if variation == "bounded":
            self.w0 = 1.0 / model.natural_drift
        else:
            self.w0 = 0.0

        if self.method == "closed_form":
            self._build_partial_fractions()
            self.tolerance_estimate = 1e-13
        elif self.method == "laplace_inversion":
            self._build_inversion_cache()
        else:
            raise ModelError(f"unknown scale-function method {method!r}")

    # -- closed form ---------------------------------------------------------

    def _build_partial_fractions(self):
        model, q = self.model, self.q
        meas = model.measure
        if meas.family == "none":
            if model.sigma > 0:
                num = np.array([0.5 * model.sigma ** 2, model.gamma, -q])
            else:
                num = np.array([model.gamma, -q])
            den = np.array([1.0])
        elif meas.family == "exponential":
            eta = meas.params["intensity"]
            rho = meas.params["decay"]
            c = model.gamma + meas.mean_small
            if model.sigma > 0:
                s2 = 0.5 * model.sigma ** 2
                num = np.array([s2, c + s2 * rho, c * rho - eta - q, -q * rho])
            else:
                num = np.array([c, c * rho - eta - q, -q * rho])
            den = np.array([1.0, rho])
        else:
            raise ModelError(f"no closed form for measure family {meas.family!r}")
        roots = np.roots(num)
        sep = np.min(np.abs(roots[:, None] - roots[None, :])
                     + np.eye(len(roots)) * 1e9) if len(roots) > 1 else 1.0
        if sep < 1e-8 * (1.0 + np.max(np.abs(roots))):
            raise NumericalAccuracyError(
                "nearly repeated roots of psi - q; use laplace_inversion", achieved=sep)
        dnum = np.polyder(num)
        self._roots = roots
        self._coeffs = np.polyval(den, roots) / np.polyval(dnum, roots)
        # the leading root must agree with Phi(q)
        lead = roots[np.argmax(roots.real)]
        if abs(lead.imag) > 1e-9 or abs(lead.real - self.phi) > 1e-8 * (1.0 + self.phi):
            raise NumericalAccuracyError("partial-fraction roots inconsistent with Phi(q)")

    def _pf_sum(self, x, power=0):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        expo = np.exp(np.multiply.outer(x, self._roots))
        return np.real(expo @ (self._coeffs * self._roots ** power))

    # -- Laplace inversion ---------------------------------------------------

    def _invert_tilted(self, x):
        return _tilted_inverse(self.model, self.q, self.phi, x)

    def _build_inversion_cache(self):
        x_lo = self.x_max * 1e-6
        nodes = np.geomspace(x_lo, self.x_max, GRID_NODES)
        g = self._invert_tilted(nodes)
        if np.any(~np.isfinite(g)):
            raise NumericalAccuracyError("Laplace inversion returned non-finite values")
        # W must be positive and increasing; the tilted function must stay positive
        g = np.maximum(g, 0.0)
        xs = np.concatenate([[0.0], nodes])
        gs = np.concatenate([[self.w0], g])
        self._interp = PchipInterpolator(xs, gs, extrapolate=False)
        self._build_exact_antiderivative(xs)
        # interpolation + inversion error probe at off-grid points, restricted
        # to the value-significant region (the deep small-x tail has absolute
        # errors far below anything the identities can feel)
        probe = np.sqrt(nodes[:-1:37] * nodes[1::37])
        direct = self._invert_tilted(probe)
        scale = float(np.max(np.abs(g)))
        keep = np.abs(direct) > 0.01 * scale
        rel = (np.abs(self._interp(probe[keep]) - direct[keep])
               / np.abs(direct[keep]))
        self.tolerance_estimate = float(np.max(rel)) + 1e-10

    def _piece_integral(self, j, h):
        """int_0^h W(x_j + t) dt on cache piece j, exact for e^{phi u} times its cubic."""
        mom = _exp_moments(self.phi, h)
        c = self._interp.c[:, j]      # p(t) = c0 t^3 + c1 t^2 + c2 t + c3, local t
        return np.exp(self.phi * self._anti_nodes[j]) * (
            c[0] * mom[3] + c[1] * mom[2] + c[2] * mom[1] + c[3] * mom[0])

    def _build_exact_antiderivative(self, xs):
        """Exact integrals of W = e^{phi u} * interpolant over the cache pieces.

        Adaptive quadrature of the many-piece interpolant is only good to a
        few 1e-9 (its error estimator misses the knot kinks), so integrals of
        W are assembled exactly piece by piece instead.
        """
        self._anti_nodes = xs
        piece = self._piece_integral(np.arange(xs.size - 1), np.diff(xs))
        self._anti_cum = np.concatenate([[0.0], np.cumsum(piece)])

    def w_antiderivative(self, x):
        """int_0^x W(u) du; exact for the cached interpolant / closed form."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        out = np.zeros(xs.shape)
        pos = xs > 0.0
        xp = xs[pos]
        if self.method == "closed_form":
            roots, coeffs = self._roots, self._coeffs
            nonzero = np.abs(roots) > 1e-14
            terms = np.where(nonzero,
                             coeffs * (np.exp(np.multiply.outer(xp, roots)) - 1.0)
                             / np.where(nonzero, roots, 1.0),
                             coeffs * xp[:, None])
            vals = np.real(np.sum(terms, axis=1))
        else:
            vals = np.empty(xp.shape)
            inside = xp <= self.x_max
            j = np.searchsorted(self._anti_nodes, xp[inside], side="right") - 1
            j = np.clip(j, 0, self._anti_nodes.size - 2)
            vals[inside] = self._anti_cum[j] + self._piece_integral(
                j, xp[inside] - self._anti_nodes[j])
            if not inside.all():
                tail, _ = quad_rows(lambda r, t: self.w(t), self.x_max, xp[~inside],
                                    epsabs=1e-12, epsrel=1e-11)
                vals[~inside] = self._anti_cum[-1] + tail
        out[pos] = vals
        return out.item() if x.ndim == 0 else out

    # -- public evaluators ---------------------------------------------------

    def w(self, x):
        """W^(q)(x); zero for x < 0, W^(q)(0+) at x = 0."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        out = np.zeros(xs.shape)
        out[xs == 0.0] = self.w0
        pos = xs > 0
        if np.any(pos):
            xp = xs[pos]
            if self.method == "closed_form":
                out[pos] = self._pf_sum(xp)
            else:
                inside = xp <= self.x_max
                vals = np.empty(xp.shape)
                if np.any(inside):
                    vals[inside] = np.exp(self.phi * xp[inside]) * self._interp(xp[inside])
                if np.any(~inside):
                    xo = xp[~inside]
                    vals[~inside] = np.exp(self.phi * xo) * self._invert_tilted(xo)
                out[pos] = vals
        return out.item() if scalar else out

    def w_exact(self, x):
        """W^(q)(x) bypassing the interpolation cache (direct inversion)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        if self.method == "closed_form":
            return self.w(x)
        out = np.zeros(xs.shape)
        out[xs == 0.0] = self.w0
        pos = xs > 0
        if np.any(pos):
            out[pos] = np.exp(self.phi * xs[pos]) * self._invert_tilted(xs[pos])
        return out.item() if scalar else out

    def w_prime(self, x):
        """Left-derivative of W^(q) at x > 0.

        Closed forms differentiate exactly; the inversion method uses central
        differences with one Richardson refinement, falling back to one-sided
        quotients when the stencil would cross 0 (W has a kink there).
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        if np.any(xs <= 0):
            raise ValueError("w_prime requires x > 0")
        if self.method == "closed_form":
            out = self._pf_sum(xs, power=1)
            return out.item() if scalar else out
        h = np.maximum(1e-6, 1e-6 * xs)
        h = np.where(xs - 2.0 * h <= 0.0, xs / 4.0, h)
        w_p, w_m, w_ph, w_mh = self.w(xs + np.array([[1.0], [-1.0], [0.5], [-0.5]]) * h)
        d1 = (w_p - w_m) / (2.0 * h)
        d2 = (w_ph - w_mh) / h
        out = (4.0 * d2 - d1) / 3.0
        return out.item() if scalar else out

    def w_second(self, x):
        """Second derivative; exact for closed forms, differences otherwise."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xs = np.atleast_1d(x)
        if self.method == "closed_form":
            out = self._pf_sum(xs, power=2)
            return out.item() if scalar else out
        h = np.maximum(1e-5, 1e-5 * xs)
        h = np.where(xs - 2.0 * h <= 0.0, xs / 4.0, h)
        w_p, w_0, w_m = self.w(xs + np.array([[1.0], [0.0], [-1.0]]) * h)
        out = (w_p - 2.0 * w_0 + w_m) / (h * h)
        return out.item() if scalar else out

    def z(self, x):
        """Z^(q)(x) = 1 + q int_0^x W^(q)(u) du; equals 1 for x <= 0."""
        if self.q == 0.0:
            x = np.asarray(x, dtype=float)
            return 1.0 if x.ndim == 0 else np.ones(x.shape)
        return 1.0 + self.q * self.w_antiderivative(x)


def invert_laplace(model, q, x):
    """Point evaluation of W^(q)(x) by contour inversion (no cache).

    Convenience wrapper used for cross-checks; ``ScaleFunction`` with
    method='laplace_inversion' is the cached production path.
    """
    if np.any(np.asarray(x) <= 0):
        raise ValueError("x must be positive")
    phi = _models.right_inverse_phi(model, q)
    g = _tilted_inverse(model, float(q), phi, x)
    return np.exp(phi * np.asarray(x, dtype=float)) * g


def transform_roundtrip(sf, lam):
    """Laplace transform of the computed W at ``lam``, for round-trip checks.

    Integrates e^{-lam x} W(x) over [0, x_cut = sf.x_max] by quadrature and
    closes the tail with the geometric-growth estimate
    W(x) ~ W(x_cut) e^{phi (x - x_cut)}.
    """
    x_cut = sf.x_max
    lam = float(lam)
    if lam <= sf.phi:
        raise ValueError("transform only converges for lam > Phi(q)")
    val, _ = quad(lambda u: math.exp(-lam * u) * float(sf.w(u)), 0.0, x_cut,
                  epsabs=1e-13, epsrel=1e-11, limit=400)
    tail = sf.w(x_cut) * math.exp(-lam * x_cut) / (lam - sf.phi)
    return val + tail
