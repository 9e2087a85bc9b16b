"""Adaptive quadrature: scalar QUADPACK wrappers and a batched Gauss-Kronrod rule.

All identity evaluations subtract near-equal quantities, so the default
tolerances are tight (1e-12 absolute).  QUADPACK warnings about roundoff are
tolerated as long as the reported error estimate stays below the caller's
panel tolerance; anything worse raises ``NumericalAccuracyError``.

``quad_rows`` integrates many independent rows at once with the 21-point
Gauss-Kronrod pair of QUADPACK's ``qags``, evaluating the new nodes of every
row in one integrand call; the generator and the identities run on it.
``stencil`` is the one difference rule: W' and W'' under the inversion method
and a ``custom`` extension's f~' and f~'' where its recipe gives none.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NumericalAccuracyError

DEFAULT_EPSABS = 1e-12
DEFAULT_EPSREL = 1e-10
# per-panel budget before a quadrature result is considered failed
PANEL_TOLERANCE = 1e-9
# most nodes in one integrand call of quad_rows, so that peak memory stays flat
CELLS = 1 << 16
# quad_rows bisects only intervals whose error is at least this share of their
# row's largest, so that a row's budget goes where QUADPACK's
# largest-error-first order would spend it
FOCUS = 0.25
# bisections that fail QUADPACK's roundoff test before a row stops
ROUNDOFF_STALLS = 6
# intervals per row at which bisection stops, as scalar quad's ``limit``
ROW_LIMIT = 200


def quad(f, lo, hi, *, epsabs=DEFAULT_EPSABS, epsrel=DEFAULT_EPSREL,
         limit=200, panel_tol=PANEL_TOLERANCE):
    """Adaptive Gauss-Kronrod integration of ``f`` over [lo, hi] (QUADPACK via scipy).

    Returns ``(value, error_estimate)``; an infinite upper limit is supported.
    An integrand with kinks or jumps inside is best split there beforehand,
    or integrated by ``quad_rows`` with the intervals as one row.
    scipy.integrate is imported on the first call, so that importing the
    package does not load it.
    """
    if lo == hi:
        return 0.0, 0.0
    from scipy import integrate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=limit)
    if not math.isfinite(val) or err > max(panel_tol, abs(val) * 1e-6):
        raise NumericalAccuracyError(
            f"quadrature on [{lo:g}, {hi}] did not converge", achieved=err)
    return val, err


def quad_singular_left(f, lo, hi, **kwargs):
    """Integrate ``f`` on [lo, hi] with an integrable singularity at ``lo``.

    Uses the substitution z = lo + u^2, which turns any (z-lo)^(-s) blow-up
    with s <= 1/2 into a bounded integrand and softens stronger ones; this is
    the graded-mesh treatment for scale-function derivative blow-ups and for
    jump-tail factors diverging at the lower endpoint.  No package module
    calls it any more (the SQRT map of ``quad_rows`` does this); it stays for
    callers (bench/tracer.py wraps it).
    """
    def g(u):
        return 2.0 * u * f(lo + u * u)

    return quad(g, 0.0, math.sqrt(hi - lo), **kwargs)


def quad_log(f, lo, hi, **kwargs):
    """Integrate ``f`` on [lo, hi], 0 < lo < hi, after the substitution t = e^s.

    Appropriate when the integrand varies over many orders of magnitude near
    the lower endpoint (power-law singular jump densities evaluated on
    intervals starting near 0).  The package itself now uses the LOG map of
    ``quad_rows``; this scalar form stays for callers (bench/tracer.py wraps it).
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


def exp_moments(phi, h):
    """The moments I_k = int_0^h e^{phi t} t^k dt, k = 0..3, stacked on axis 0.

    ``phi`` and ``h`` broadcast against each other.  Where |phi h| <= 1 the
    series I_k = h^{k+1} sum_i (phi h)^i / (i! (k+1+i)) is summed to
    convergence (20 terms, smallest first).  Above that the recursion
    I_k = (h^k e^{phi h} - k I_{k-1}) / phi is used; it cancels badly for
    small phi h but loses only a few units in the last place here.
    """
    phi, h = np.broadcast_arrays(np.asarray(phi, dtype=float), np.asarray(h, dtype=float))
    mom = np.empty((4,) + h.shape)
    small = np.abs(phi * h) <= 1.0
    hs, hb, pb = h[small], h[~small], phi[~small]
    u = phi[small] * hs
    terms = [np.ones(hs.shape)]
    for i in range(1, 20):
        terms.append(terms[-1] * u / i)
    for k in range(4):
        acc = np.zeros(hs.shape)
        for i in reversed(range(20)):
            acc += terms[i] / (k + 1 + i)
        mom[k, small] = hs ** (k + 1) * acc
    e = np.exp(pb * hb)
    prev = np.expm1(pb * hb) / pb
    mom[0, ~small] = prev
    for k in range(1, 4):
        prev = (hb ** k * e - k * prev) / pb
        mom[k, ~small] = prev
    return mom


def stencil(func, x, order, origin, scale):
    """Central difference for d^order func / dx^order, order 1 or 2, at x > origin:
    step s max(scale, x - origin), s = 1e-6 (order 1) or 1e-5 (order 2), shrunk to
    (x - origin)/4 where the stencil would reach origin; one Richardson step for
    order 1, the 3-point difference for order 2.  Wherever ``func`` is
    differentiable this is its left derivative, up to truncation and roundoff."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    d = xs - origin
    h = (1e-6 if order == 1 else 1e-5) * np.maximum(scale, d)
    h = np.where(d - 2.0 * h <= 0.0, d / 4.0, h)
    offsets = np.array([1.0, -1.0, 0.5, -0.5] if order == 1 else [1.0, 0.0, -1.0])
    v = np.reshape(func((xs + offsets[:, None] * h).ravel()), (offsets.size, -1))
    out = ((4.0 * ((v[2] - v[3]) / h) - (v[0] - v[1]) / (2.0 * h)) / 3.0 if order == 1
           else (v[0] - 2.0 * v[1] + v[2]) / (h * h))
    return out.reshape(np.shape(x))[()]


# ---------------------------------------------------------------------------
# batched Gauss-Kronrod
# ---------------------------------------------------------------------------

# QUADPACK qk21: Kronrod abscissae on [0, 1) (the odd entries are the 10-point
# Gauss nodes) and weights, laid out below over [-1, 1] left to right
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745990561, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WGK0 = 0.149445554002916905664936468389821
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
_KRONROD = np.concatenate([_WGK, [_WGK0], _WGK[::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1:10:2] = _WG
_GAUSS[19:10:-2] = _WG
_EPS = np.finfo(float).eps

# maps from the integration variable s to the original variable t:
# PLAIN t = s; SQRT t = c + s^2 (c the row's left end, for integrable
# singularities there); LOG t = e^s (densities spanning many decades near 0);
# TAIL t = c + (1 - s)/s on s in (0, 1] (QUADPACK qagie's map of [c, inf));
# RSQRT t = c - s^2 on s <= 0 (c the row's right end: SQRT mirrored)
PLAIN, SQRT, LOG, TAIL, RSQRT = range(5)


def _to_mapped(code, anchor, lo, hi):
    s0, s1 = lo.copy(), hi.copy()
    m = code == SQRT
    s0[m], s1[m] = np.sqrt(lo[m] - anchor[m]), np.sqrt(hi[m] - anchor[m])
    m = code == LOG
    s0[m], s1[m] = np.log(lo[m]), np.log(hi[m])
    m = code == TAIL
    s0[m], s1[m] = 0.0, 1.0
    m = code == RSQRT
    s0[m], s1[m] = -np.sqrt(anchor[m] - lo[m]), -np.sqrt(anchor[m] - hi[m])
    return s0, s1


def _from_mapped(code, anchor, s):
    """Original nodes and Jacobians for mapped nodes ``s`` (one row per interval)."""
    t, jac = s.copy(), np.ones(s.shape)
    for kind in (SQRT, LOG, TAIL, RSQRT):
        m = code == kind
        if not m.any():
            continue
        sm, cm = s[m], anchor[m, None]
        if kind == SQRT:
            t[m], jac[m] = cm + sm * sm, 2.0 * sm
        elif kind == LOG:
            t[m] = jac[m] = np.exp(sm)
        elif kind == TAIL:
            t[m], jac[m] = cm + (1.0 - sm) / sm, 1.0 / (sm * sm)
        else:
            t[m], jac[m] = cm - sm * sm, -2.0 * sm
    return t, jac


def _kronrod(f, rows, code, anchor, s0, s1):
    """qk21 on every interval: (value, error estimate, roundoff floor).

    The error estimate follows QUADPACK: |Kronrod - Gauss| scaled against the
    mean deviation of the integrand, and never below 50 eps * int |f|, which
    is returned as the floor below which bisection cannot help.
    """
    n = rows.size
    val, err, floor = np.empty(n), np.empty(n), np.empty(n)
    step = max(1, CELLS // _NODES.size)
    for lo in range(0, n, step):
        sl = slice(lo, lo + step)
        centre, half = 0.5 * (s0[sl] + s1[sl]), 0.5 * (s1[sl] - s0[sl])
        t, jac = _from_mapped(code[sl], anchor[sl], centre[:, None] + half[:, None] * _NODES)
        fv = np.asarray(f(np.repeat(rows[sl], _NODES.size), t.ravel()),
                        dtype=float).reshape(t.shape) * jac
        # a non-finite value ends its row (see quad_rows); no warnings for it here
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            resk = (fv * _KRONROD).sum(axis=1)
            resg = (fv * _GAUSS).sum(axis=1)
            resabs = (np.abs(fv) * _KRONROD).sum(axis=1) * half
            resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KRONROD).sum(axis=1) * half
            e = np.abs((resk - resg) * half)
            scaled = resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5)
            e = np.where((resasc != 0.0) & (e != 0.0), scaled, e)
            floor[sl] = 50.0 * _EPS * resabs
            err[sl] = np.maximum(e, floor[sl])
            val[sl] = resk * half
    return val, err, floor


def quad_rows(f, lo, hi, *, rows=None, maps=PLAIN, epsabs=DEFAULT_EPSABS,
              epsrel=DEFAULT_EPSREL, panel_tol=PANEL_TOLERANCE):
    """Integrate many rows at once: row r is the sum over its intervals of
    int_lo^hi f(r, t) dt.

    ``lo``/``hi`` list the intervals (``hi`` may be inf for the TAIL map),
    ``rows`` their row ids (default: one row per interval; several intervals
    in a row act as QUADPACK break points) and ``maps`` their maps (PLAIN,
    SQRT, LOG, TAIL or RSQRT, scalar or per interval).  ``f(r, t)`` receives flat
    arrays of row ids and nodes and returns the integrand values.

    Each step bisects, in rows whose error estimate is above
    max(epsabs, epsrel |I_r|), the intervals whose error is above their
    length's share of that, at least FOCUS times the row's largest and above
    their roundoff floor.  A row stops at ROW_LIMIT intervals or after
    ROUNDOFF_STALLS bisections that fail QUADPACK's roundoff test.  Each step
    evaluates the new nodes of every row in calls of ``f`` of at most CELLS
    nodes, and a row's subdivision depends on that row alone.  Returns
    per-row ``(value, error)`` arrays and, unless ``panel_tol`` is None,
    applies ``check_rows`` to them first.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float).ravel(),
                                 np.asarray(hi, dtype=float).ravel())
    rows = np.arange(lo.size) if rows is None else np.asarray(rows, dtype=np.intp)
    nrows = int(rows.max()) + 1 if rows.size else 0
    code = np.broadcast_to(np.asarray(maps, dtype=np.intp), lo.shape)
    left, right = np.full(nrows, np.inf), np.full(nrows, -np.inf)
    np.minimum.at(left, rows, lo)
    np.maximum.at(right, rows, hi)
    # empty intervals add exact zeros
    keep = hi > lo
    rows, code, lo, hi = rows[keep], code[keep], lo[keep], hi[keep]
    anchor = np.where(code == SQRT, left[rows], np.where(code == RSQRT, right[rows], lo))
    s0, s1 = _to_mapped(code, anchor, lo, hi)
    length = np.bincount(rows, s1 - s0, nrows)
    val, err, floor = _kronrod(f, rows, code, anchor, s0, s1)
    stalls = np.zeros(nrows, dtype=np.intp)
    while True:
        total = np.bincount(rows, val, nrows)
        etot = np.bincount(rows, err, nrows)
        tol = np.maximum(epsabs, epsrel * np.abs(total))
        live = ((etot > tol) & np.isfinite(total) & (stalls < ROUNDOFF_STALLS)
                & (np.bincount(rows, minlength=nrows) < ROW_LIMIT))
        width = s1 - s0
        emax = np.zeros(nrows)
        with np.errstate(invalid="ignore"):
            np.maximum.at(emax, rows, err)
        split = (live[rows] & (err > tol[rows] * width / length[rows]) & (err > floor)
                 & (err >= FOCUS * emax[rows])
                 & (width > 100.0 * _EPS * np.maximum(np.abs(s0), np.abs(s1)) + 1e-300))
        if not split.any():
            break
        r, c, a, left, right = rows[split], code[split], anchor[split], s0[split], s1[split]
        mid = 0.5 * (left + right)
        r2, c2, a2 = np.tile(r, 2), np.tile(c, 2), np.tile(a, 2)
        n0, n1 = np.concatenate([left, mid]), np.concatenate([mid, right])
        v2, e2, f2 = _kronrod(f, r2, c2, a2, n0, n1)
        # QUADPACK's roundoff test: a bisection that moved the value by less
        # than 1e-5 and cut the error by less than 1% counts against its row,
        # which stops after ROUNDOFF_STALLS of them
        k = r.size
        stuck = ((np.abs(v2[:k] + v2[k:] - val[split]) <= 1e-5 * np.abs(v2[:k] + v2[k:]))
                 & (e2[:k] + e2[k:] >= 0.99 * err[split]))
        stalls += np.bincount(r[stuck], minlength=nrows)
        keep = ~split
        rows, code, anchor = (np.concatenate([rows[keep], r2]), np.concatenate([code[keep], c2]),
                              np.concatenate([anchor[keep], a2]))
        s0, s1 = np.concatenate([s0[keep], n0]), np.concatenate([s1[keep], n1])
        val, err = np.concatenate([val[keep], v2]), np.concatenate([err[keep], e2])
        floor = np.concatenate([floor[keep], f2])
    if panel_tol is not None:
        check_rows(total, etot, panel_tol)
    return total, etot


def check_rows(val, err, panel_tol=PANEL_TOLERANCE, where=None):
    """``quad``'s failure rule per row: a non-finite value, or an error above
    max(panel_tol, 1e-6 |val|), raises ``NumericalAccuracyError`` naming the
    first failing row (``where[r]`` describes row r when given)."""
    with np.errstate(invalid="ignore"):
        bad = ~np.isfinite(val) | (err > np.maximum(panel_tol, 1e-6 * np.abs(val)))
    if bad.any():
        r = int(np.argmax(bad))
        label = f" at {where[r]:g}" if where is not None else ""
        raise NumericalAccuracyError(
            f"batched quadrature row {r}{label} did not converge", achieved=float(err[r]))


def breaks(lo, hi, points=()):
    """Interval ends ``(lo_i, hi_i)`` of [lo, hi] cut at the ``points`` inside it."""
    pts = sorted({float(p) for p in points if lo < p < hi})
    edges = np.array([lo] + pts + [hi], dtype=float)
    return edges[:-1], edges[1:]
