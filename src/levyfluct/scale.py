"""Scale functions W^(q) and Z^(q).

W^(q) is the increasing function on [0, inf) whose Laplace transform is
1/(psi(lam) - q) for lam > Phi(q), extended by zero to the negative
half-line; Z^(q)(x) = 1 + q * int_0^x W^(q).

Two evaluation methods:

* ``closed_form`` - for models whose psi is rational (no jumps, or compound
  Poisson exponential jumps): partial fractions of 1/(psi - q) give W as a
  short sum of exponentials, with exact derivatives and antiderivative.
* ``laplace_inversion`` - Euler-summation (Bromwich contour) inversion of the
  exponentially tilted transform 1/(psi(s + Phi(q)) - q), in bounded memory,
  ``BLOCK_ROWS`` contour points at a time.  The tilted scale function is
  bounded and monotone, which keeps the inversion stable; values are cached
  on a geometric grid and interpolated by a not-a-knot cubic spline.

Builds are memoised for the process: a ``ScaleFunction`` with the same model
parameters (``models.model_key``: gamma, sigma, the measure's family and
``params``), q, settled method and ``x_max`` as one of the ``MEMO_ENTRIES``
(16) most recently built reuses its Phi(q), W(0+), ``tolerance_estimate`` and
its partial fractions or inversion cache, as read-only arrays, bit for bit.
A ``custom`` measure, which no parameters determine, keys on the measure
object itself.  Every instance is its own object and holds its caller's model.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.special import binom

from . import models as _models
from .errors import ModelError, NumericalAccuracyError
# tests import the moment series from here under its old name
from .quadrature import SQRT, exp_moments as _exp_moments, quad, quad_rows

_CLOSED_FORM_FAMILIES = ("none", "exponential")
# Euler summation settings, and the number of nodes in the inversion cache
INVERSION_PARAMS = dict(a_param=28.0, n_terms=60, m_euler=35)
GRID_NODES = 2048
# contour points per euler_inversion block: ~100 KB per complex temporary, in cache
BLOCK_ROWS = 64
# Euler's weights binom(m, k) / 2^m; scipy's binomials sum to exactly 2^m
_EULER_WEIGHTS = binom(INVERSION_PARAMS["m_euler"], np.arange(INVERSION_PARAMS["m_euler"] + 1))
_EULER_WEIGHTS /= 2.0 ** INVERSION_PARAMS["m_euler"]
# builds kept for reuse, the least recently used dropped first: an inversion build
# holds about 200 KB, a closed form a few hundred bytes
MEMO_ENTRIES = 16
# what a build computes, by method: all that a ScaleFunction holds besides its inputs
_BUILT = {"closed_form": ("phi", "w0", "tolerance_estimate", "_roots", "_coeffs"),
          "laplace_inversion": ("phi", "w0", "tolerance_estimate", "_interp", "_anti_nodes",
                                "_anti_cum")}


def euler_inversion(transform, x):
    """Invert a Laplace transform at finite x > 0 by Euler-accelerated summation.

    ``transform`` must accept a complex ndarray.  The contour abscissa is
    a_param/(2x) (``INVERSION_PARAMS``); the aliasing error is
    O(exp(-a_param)) times the scale of the inverted function, so the target
    function should be bounded (tilt exponentially growing functions first).
    The contour is evaluated ``BLOCK_ROWS`` points at a time, each row summed
    on its own: memory stays bounded and a value does not depend on its batch.
    """
    a_param, n_terms = INVERSION_PARAMS["a_param"], INVERSION_PARAMS["n_terms"]
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    xs = np.atleast_1d(x)
    if not np.all((xs > 0) & np.isfinite(xs)):
        raise ValueError("inversion points must be positive and finite")
    k = np.arange(n_terms + _EULER_WEIGHTS.size)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    est = np.empty(xs.shape)
    for lo in range(0, xs.size, BLOCK_ROWS):
        s = (a_param + 2j * np.pi * k) / (2.0 * xs[lo:lo + BLOCK_ROWS, None])
        vals = np.real(transform(s)) * signs
        vals[:, 0] *= 0.5
        partial = np.cumsum(vals, axis=1)
        # a row-wise sum, not a matrix product, so a point's value does not depend on its batch
        est[lo:lo + BLOCK_ROWS] = (partial[:, n_terms:] * _EULER_WEIGHTS).sum(axis=1)
    out = est * math.exp(a_param / 2.0) / xs
    return out.item() if scalar else out


class _Spline:
    """Not-a-knot cubic spline through (x, y), x increasing with at least four nodes.

    The same numbers as scipy's ``CubicSpline(x, y, extrapolate=False)``, to
    the last bit: the slopes solve scipy's banded system, not-a-knot end rows
    included, with the LAPACK routine its ``solve_banded((1, 1), ...)`` calls;
    ``c`` is its ``(4, n-1)`` coefficient array (piece j is
    c[0] t^3 + c[1] t^2 + c[2] t + c[3], t = u - x[j]); and a call sums in
    its order.  A point outside [x[0], x[-1]], or NaN, evaluates to NaN.
    """

    def __init__(self, x, y):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        # the tridiagonal system for the slopes at the nodes, by diagonals
        diag, rhs = np.empty(x.size), np.empty(x.size)
        sub, sup = np.empty(x.size - 1), np.empty(x.size - 1)
        diag[1:-1] = 2 * (dx[:-1] + dx[1:])
        sup[1:] = dx[:-1]
        sub[:-1] = dx[1:]
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        # not-a-knot: the third derivative is continuous at x[1] and x[-2]
        diag[0] = dx[1]
        d = sup[0] = x[2] - x[0]
        rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        diag[-1] = dx[-2]
        d = sub[-1] = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        *_, s, info = dgtsv(sub, diag, sup, rhs, True, True, True, True)
        if info != 0:
            raise NumericalAccuracyError("singular spline system")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        # one gather per call: the coefficients (the constant one as 0 + c3, the
        # first term of scipy's sum) and the left node of each piece, then a NaN
        # piece that the search gives every point outside [x[0], x[-1]] and NaN
        self._table = np.hstack([np.vstack([self.c[:3], 0.0 + self.c[3], x[:-1]]),
                                 np.full((5, 1), np.nan)])
        self._edges = np.concatenate([x[:-1], [np.nextafter(x[-1], np.inf)]])
        # read-only, since a scale-function build shares its spline
        for arr in (self.x, self.c, self._table, self._edges):
            arr.flags.writeable = False

    def __call__(self, u, nu=0):
        """The spline (``nu=0``) or its first derivative (``nu=1``) at the points u."""
        u = np.asarray(u, dtype=float)
        c0, c1, c2, c3, left = self._table.take(
            np.searchsorted(self._edges, u, side="right") - 1, axis=1)
        s = u - left
        ss = s * s
        if nu == 0:
            return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)
        if nu == 1:
            return ((0.0 + c2) + c1 * s * 2.0) + c0 * ss * 3.0
        raise ValueError("only the spline and its first derivative are evaluated")


class _Memo:
    """A thread-safe map from build keys to builds that keeps the ``MEMO_ENTRIES``
    most recently used."""

    def __init__(self):
        self._items = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            built = self._items.get(key)
            if built is not None:
                self._items.move_to_end(key)
            return built

    def put(self, key, built):
        with self._lock:
            self._items[key] = built
            self._items.move_to_end(key)
            while len(self._items) > MEMO_ENTRIES:
                self._items.popitem(last=False)


_BUILDS = _Memo()


def _tilted_inverse(model, q, phi, x):
    """e^{-Phi(q) x} W^(q)(x) at x > 0: the inverse of 1/(psi(s + Phi(q)) - q)."""
    return euler_inversion(lambda s: 1.0 / (_models.laplace_exponent(model, s + phi) - q), x)


def _direct_w(model, q, phi, x):
    """W^(q) at the points x > 0 (a float array) by direct inversion."""
    return np.exp(phi * x) * _tilted_inverse(model, q, phi, x)


class ScaleFunction:
    """Evaluator bundle for W^(q), its derivative and Z^(q) for one (model, q).

    Immutable after construction (the inversion cache is filled eagerly, or
    taken from the build memo), so instances can be shared across threads.
    ``q`` must be finite and nonnegative and ``x_max`` finite and positive
    (``ModelError`` otherwise, before any work).  The method is settled here:
    ``_w_kernel``, ``_exact_kernel`` and ``_anti_kernel`` evaluate W, W
    without the cache, and int_0^x W at points x > 0.
    """

    def __init__(self, model, q, method="auto", x_max=10.0):
        q, x_max = float(q), float(x_max)
        if not 0.0 <= q < math.inf:
            raise ModelError("q must be finite and nonnegative")
        if not 0.0 < x_max < math.inf:
            raise ModelError("x_max must be finite and positive")
        if method == "auto":
            method = ("closed_form" if model.measure.family in _CLOSED_FORM_FAMILIES
                      else "laplace_inversion")
        if method not in _BUILT:
            raise ModelError(f"unknown scale-function method {method!r}")
        self.model, self.q, self.method, self.x_max = model, q, method, x_max
        self.inversion_params = dict(INVERSION_PARAMS, grid_nodes=GRID_NODES)

        if method == "closed_form":
            self._w_kernel = self._exact_kernel = self._pf_sum
            self._anti_kernel = self._pf_antiderivative
        else:
            self._exact_kernel = self._inverted_w
            self._w_kernel = self._cached_w
            self._anti_kernel = self._cached_antiderivative
        key = _models.model_key(model) + (q, method, x_max)
        built = _BUILDS.get(key)
        if built is None:
            built = self._build()
            _BUILDS.put(key, built)
        vars(self).update(built)

    def _build(self):
        """The attributes ``_BUILT`` names for this method, computed, arrays read-only."""
        model = self.model
        self.phi = _models.right_inverse_phi(model, self.q)
        bounded = _models.path_variation(model) == "bounded"
        self.w0 = 1.0 / model.natural_drift if bounded else 0.0
        if self.method == "closed_form":
            self._build_partial_fractions()
            self.tolerance_estimate = 1e-13
        else:
            self._build_inversion_cache()
        built = {name: getattr(self, name) for name in _BUILT[self.method]}
        for value in built.values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return built

    # -- closed form ---------------------------------------------------------

    def _build_partial_fractions(self):
        # 1/(psi - q) = den/num; np.roots drops num's leading zero when sigma = 0
        model, q = self.model, self.q
        meas = model.measure
        s2 = 0.5 * model.sigma ** 2
        if meas.family == "none":
            num = np.array([s2, model.gamma, -q])
            den = np.array([1.0])
        elif meas.family == "exponential":
            eta = meas.params["intensity"]
            rho = meas.params["decay"]
            c = model.gamma + meas.mean_small
            num = np.array([s2, c + s2 * rho, c * rho - eta - q, -q * rho])
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

    def _pf_antiderivative(self, x):
        roots, coeffs = self._roots, self._coeffs
        nonzero = np.abs(roots) > 1e-14
        terms = np.where(nonzero,
                         coeffs * (np.exp(np.multiply.outer(x, roots)) - 1.0)
                         / np.where(nonzero, roots, 1.0),
                         coeffs * x[:, None])
        return np.real(np.sum(terms, axis=1))

    # -- Laplace inversion ---------------------------------------------------

    def _build_inversion_cache(self):
        x_lo = self.x_max * 1e-6
        nodes = np.geomspace(x_lo, self.x_max, GRID_NODES)
        g = _tilted_inverse(self.model, self.q, self.phi, nodes)
        if np.any(~np.isfinite(g)):
            raise NumericalAccuracyError("Laplace inversion returned non-finite values")
        # W must be positive and increasing; the tilted function must stay positive
        g = np.maximum(g, 0.0)
        xs = np.concatenate([[0.0], nodes])
        gs = np.concatenate([[self.w0], g])
        self._interp = _Spline(xs, gs)
        self._build_exact_antiderivative(xs)
        # interpolation + inversion error probe at off-grid points, restricted
        # to the value-significant region (the deep small-x tail has absolute
        # errors far below anything the identities can feel)
        probe = np.sqrt(nodes[:-1:37] * nodes[1::37])
        direct = _tilted_inverse(self.model, self.q, self.phi, probe)
        scale = float(np.max(np.abs(g)))
        keep = np.abs(direct) > 0.01 * scale
        rel = (np.abs(self._interp(probe[keep]) - direct[keep])
               / np.abs(direct[keep]))
        self.tolerance_estimate = float(np.max(rel)) + 1e-10

    def _inverted_w(self, x):
        """W at the points x > 0 by direct inversion, without the cache."""
        return _direct_w(self.model, self.q, self.phi, x)

    def _cached_w(self, x):
        """W at x > 0 from the cache, inverted directly below its first node and
        past x_max (the first piece misses a steep W(y) ~ y^(1/2) by up to 94%)."""
        vals = np.empty(x.shape)
        inside = (x >= self._interp.x[1]) & (x <= self.x_max)
        if np.any(inside):
            vals[inside] = np.exp(self.phi * x[inside]) * self._interp(x[inside])
        if not inside.all():
            vals[~inside] = self._exact_kernel(x[~inside])
        return vals

    def _piece_integral(self, j, h):
        """int_0^h W(x_j + t) dt on cache piece j, exact for e^{phi u} times its cubic."""
        mom = _exp_moments(self.phi, h)
        c = self._interp.c[:, j]      # p(t) = c0 t^3 + c1 t^2 + c2 t + c3, local t
        return np.exp(self.phi * self._anti_nodes[j]) * (
            c[0] * mom[3] + c[1] * mom[2] + c[2] * mom[1] + c[3] * mom[0])

    def _first_piece_integral(self, x):
        """int_0^x of the directly inverted W at points 0 < x <= the first cache node,
        one square-root mapped row per point (W may grow like y^(1/2) there)."""
        vals, _ = quad_rows(lambda r, t: self._exact_kernel(t), 0.0, x, maps=SQRT,
                            epsabs=0.0, epsrel=1e-12)
        return vals

    def _build_exact_antiderivative(self, xs):
        """Integrals of W over the cache pieces, with one cumulative sum for every x.

        Past the first geometric node each piece of W = e^{phi u} * spline is
        integrated in closed form, exact to rounding.  Below it ``w`` inverts
        directly (the spline's first piece cannot follow a steep W), so the
        first piece integrates that same W by quadrature.  Z^(q) is then the
        integral of the W that ``w`` returns.
        """
        self._anti_nodes = xs
        piece = self._piece_integral(np.arange(xs.size - 1), np.diff(xs))
        piece[0] = self._first_piece_integral(xs[1:2])[0]
        self._anti_cum = np.concatenate([[0.0], np.cumsum(piece)])

    def _cached_antiderivative(self, x):
        vals = np.empty(x.shape)
        first = x < self._anti_nodes[1]
        if np.any(first):
            vals[first] = self._first_piece_integral(x[first])
        inside = ~first & (x <= self.x_max)
        j = np.minimum(np.searchsorted(self._anti_nodes, x[inside], side="right") - 1,
                       self._anti_nodes.size - 2)
        vals[inside] = self._anti_cum[j] + self._piece_integral(j, x[inside] - self._anti_nodes[j])
        outside = x > self.x_max
        if np.any(outside):
            tail, _ = quad_rows(lambda r, t: self.w(t), self.x_max, x[outside],
                                epsabs=1e-12, epsrel=1e-11)
            vals[outside] = self._anti_cum[-1] + tail
        return vals

    # -- public evaluators ---------------------------------------------------

    @staticmethod
    def _on_half_line(x, kernel, at_zero):
        """``kernel`` at the points x > 0, ``at_zero`` at 0 and zero below; NaN raises."""
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        if np.isnan(xs).any():
            raise ValueError("scale functions are undefined at NaN")
        out = np.zeros(xs.shape)
        out[xs == 0.0] = at_zero
        pos = xs > 0
        if np.any(pos):
            out[pos] = kernel(xs[pos])
        return out.item() if x.ndim == 0 else out

    def _derivative(self, x, power, step, offsets, combine):
        """d^power W / dx^power at x > 0, exact for closed forms; x <= 0 or NaN raises.

        The inversion method returns ``combine(h, *W(x + offsets * h))`` with
        h = max(step, step * x), shrunk to x/4 where the stencil would cross 0
        (W has a kink there).
        """
        x = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x)
        if not np.all(xs > 0):
            raise ValueError("derivatives of W^(q) require x > 0")
        if self.method == "closed_form":
            out = self._pf_sum(xs, power=power)
        else:
            h = np.maximum(step, step * xs)
            h = np.where(xs - 2.0 * h <= 0.0, xs / 4.0, h)
            out = combine(h, *self.w(xs + np.array(offsets)[:, None] * h))
        return out.item() if x.ndim == 0 else out

    def w(self, x):
        """W^(q)(x); zero for x < 0, W^(q)(0+) at x = 0."""
        return self._on_half_line(x, self._w_kernel, self.w0)

    def w_exact(self, x):
        """W^(q)(x) bypassing the interpolation cache (direct inversion)."""
        return self._on_half_line(x, self._exact_kernel, self.w0)

    def w_antiderivative(self, x):
        """int_0^x W(u) du of the W that ``w`` returns; exact for closed forms."""
        return self._on_half_line(x, self._anti_kernel, 0.0)

    def w_difference(self, c, y):
        """W(c - y) - W(c) at a float c and at y >= 0, without the plain difference's
        cancellation.

        Closed forms sum c_i e^{r_i c} expm1(-r_i y) where c - y >= 0.  Where c - y
        lies on the cache piece of c, W = e^{phi u} p(u) gives e^{phi c} [expm1(-phi y)
        p(c - y) + p(c - y) - p(c)], with -y factored out of the cubic's difference.
        Elsewhere the plain difference.
        """
        y = np.asarray(y, dtype=float)
        u = c - y
        if self.method == "closed_form":
            fine = u >= 0.0
            exact = np.real((np.exp(c * self._roots) * np.expm1(
                np.multiply.outer(-y[fine], self._roots))) @ self._coeffs)
        else:
            nodes = self._interp.x
            j = min(int(np.searchsorted(nodes, c, side="right")) - 1, nodes.size - 2)
            fine = (u >= max(nodes[1], nodes[j])) & (c <= self.x_max)
            yf, t, k = y[fine], c - nodes[j], self._interp.c[:, j]
            tu = t - yf
            dp = -yf * (k[0] * (t * t + t * tu + tu * tu) + k[1] * (t + tu) + k[2])
            exact = math.exp(self.phi * c) * (np.expm1(-self.phi * yf) * self._interp(u[fine])
                                              + dp)
        out = np.empty(u.shape)
        out[fine] = exact
        out[~fine] = self.w(u[~fine]) - self.w(c)
        return out if out.ndim else out.item()

    def w_prime(self, x):
        """Left-derivative of W^(q) at x > 0.

        Closed forms differentiate exactly; the inversion method uses central
        differences with one Richardson refinement.
        """
        return self._derivative(
            x, 1, 1e-6, (1.0, -1.0, 0.5, -0.5),
            lambda h, w_p, w_m, w_ph, w_mh: (4.0 * ((w_ph - w_mh) / h)
                                             - (w_p - w_m) / (2.0 * h)) / 3.0)

    def w_second(self, x):
        """Second derivative of W^(q) at x > 0; exact for closed forms, differences otherwise."""
        return self._derivative(x, 2, 1e-5, (1.0, 0.0, -1.0),
                                lambda h, w_p, w_0, w_m: (w_p - 2.0 * w_0 + w_m) / (h * h))

    def z(self, x):
        """Z^(q)(x) = 1 + q int_0^x W^(q)(u) du; equals 1 for x <= 0."""
        anti = self._anti_kernel if self.q else (lambda xs: np.zeros(xs.shape))
        return 1.0 + self.q * self._on_half_line(x, anti, 0.0)


def invert_laplace(model, q, x):
    """Point evaluation of W^(q)(x) by contour inversion (no cache).

    Convenience wrapper used for cross-checks; ``ScaleFunction`` with
    method='laplace_inversion' is the cached production path.  ``x`` must be
    finite and positive (``ValueError`` otherwise).
    """
    x = np.asarray(x, dtype=float)
    return _direct_w(model, float(q), _models.right_inverse_phi(model, q), x)


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
