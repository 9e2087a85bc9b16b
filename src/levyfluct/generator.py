"""Penalty functions, their extensions, and the compensated generator.

A penalty f lives on (-inf, a]; the identities need an extension f_tilde on
(a, b], free to choose within a regularity class.  This module packages the
pair, checks the class membership numerically (the conditions are analytic,
so the checks are advisory spot checks on grids), and evaluates

    (A - q) h(x) = gamma h'_-(x) + sigma^2/2 h''(x)
                   + int_0^inf [h(x-th) - h(x) + h'_-(x) th 1{th<=1}] Pi(dth)
                   - q h(x)

for the regularised h that equals f below a, f_tilde above, and the right
limit f_tilde(a+) at a itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import models as _models
from .errors import (ConditionNotMetError, HypothesisViolationError, ModelError,
                     NumericalAccuracyError)
from .quadrature import LOG, PLAIN, TAIL, check_rows, quad_rows, stencil

_LARGE = 1e8
# membership spot checks: grid on (a, b], continuity tolerance, and the tail
# check's jump-size threshold lambda = TAIL_FACTOR * (b - a) and start points
MEMBERSHIP_GRID = 1024
MEMBERSHIP_TOL = 1e-6
TAIL_FACTOR = 1.5
TAIL_POINTS = 64
# jump sizes below this go through the Taylor panel h''(x)/2 int th^2 Pi(dth)
SMALL_CUT = 1e-5


@dataclass(frozen=True)
class ExtensionRecipe:
    """How to continue a penalty onto (a, b].

    kinds: 'zero', 'constant_one', 'affine_at_a' (f'_-(a) y + f(a)),
    'scale_function' (W^(q), for overshoot-of-scale-function identities),
    'custom' (user callables; a missing ``f_tilde_deriv`` or ``f_tilde_second``
    is ``quadrature.stencil`` of ``f_tilde`` with origin a and scale b - a, which
    is the left derivative wherever f~ is differentiable).
    """

    kind: str
    slope: Optional[float] = None                  # affine_at_a: left slope of f at a
    scale: object = None                           # scale_function: a ScaleFunction
    f_tilde: Optional[Callable] = None             # custom
    f_tilde_deriv: Optional[Callable] = None
    f_tilde_second: Optional[Callable] = None


@dataclass(frozen=True)
class ExtendedPenalty:
    """Penalty f on (-inf, a] with chosen extension f_tilde on (a, b].

    ``h`` is the regularised combination used inside generator integrals:
    f below a, f_tilde above a, and f_tilde(a+) at a itself.  ``f_at_a``
    keeps the true penalty value for the creeping correction; the membership
    report bounds f~' and f~'' on its own grid.
    """

    a: float
    b: float
    f: Callable
    f_tilde: Callable
    f_tilde_left_deriv: Callable
    f_tilde_second: Callable
    right_limit_at_a: float
    f_at_a: float
    continuous_at_a: bool
    smooth_junction: bool          # bounded density of h in a two-sided neighbourhood of a
    kinks: tuple = ()              # y-locations where h is not smooth (quadrature breaks)
    # f_tilde reproduces f just below a, so h is one smooth function across a
    continues_f: bool = False
    recipe: str = "custom"
    # optional exact form of f~(x-th) - f~(x) + f~'(x) th for x-th still above a;
    # kills catastrophic cancellation against singular jump densities
    compensated_diff: Optional[Callable] = None
    # check_membership's reports, one per models.model_key; a replaced copy starts empty
    _reports: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def h(self, y):
        y = np.asarray(y, dtype=float)
        ys = np.atleast_1d(y)
        out = np.empty(ys.shape)
        above, at = ys > self.a, ys == self.a
        below = ~(above | at)
        if above.any():
            out[above] = self.f_tilde(ys[above])
        if below.any():
            out[below] = self.f(ys[below])
        out[at] = self.right_limit_at_a
        return out.item() if y.ndim == 0 else out


def _left_slope(f, a, h=1e-6):
    d1 = (float(f(a)) - float(f(a - h))) / h
    d2 = (float(f(a)) - float(f(a - 0.5 * h))) / (0.5 * h)
    return 2.0 * d2 - d1


def _grid_bound(func, lo, hi, n=257):
    ys = np.linspace(lo, hi, n + 2)[1:-1]
    return float(np.max(np.abs(func(ys))))


def array_function(func, probe):
    """``func`` if it maps an array of ``probe`` points elementwise, else
    ``np.vectorize(func)``, so that scalar-only callables work on arrays."""
    probe = np.asarray(probe, dtype=float)
    try:
        with np.errstate(all="ignore"):
            if np.shape(func(probe)) == probe.shape:
                return func
    except Exception:
        pass
    return np.vectorize(func, otypes=[float])


def penalty_function(f, a, b):
    """``array_function`` of a penalty on (-inf, a], probed below a."""
    return array_function(f, a - (b - a) * np.array([1.0, 0.5, 0.0]))


def extend_penalty(f, a, b, recipe, f_kinks=()):
    """Build an ExtendedPenalty from a penalty callable and a recipe.

    ``f_kinks`` lists non-smooth points of the penalty itself (e.g. 0 for a
    scale-function penalty); they become forced quadrature breaks.  The
    penalty and custom callables are probed once with a small array and
    vectorised with ``np.vectorize`` when they do not map arrays elementwise.
    """
    if not a < b:
        raise ModelError("need a < b")
    if isinstance(recipe, str):
        recipe = ExtensionRecipe(kind=recipe)
    if recipe.kind == "scale_function" and a < 0:
        # W^(q) is 0 below 0 and not smooth at 0: a jump, a kink or an infinite slope
        raise ModelError(f"the scale_function extension needs a >= 0, got a = {a:g}")
    inside = a + (b - a) * np.array([0.25, 0.5, 0.75])
    f = penalty_function(f, a, b)
    f_at_a = float(f(a))
    kind = recipe.kind
    comp_diff = None
    if kind in ("zero", "constant_one", "affine_at_a"):
        # the affine extensions slope * y + level
        if kind == "affine_at_a":
            slope = recipe.slope if recipe.slope is not None else _left_slope(f, a)
            level = f_at_a
        else:
            slope, level = 0.0, (1.0 if kind == "constant_one" else 0.0)
        f_tilde = lambda y: slope * y + level
        deriv = lambda y: slope + 0.0 * y
        second = lambda y: 0.0 * y
        right_limit = slope * a + level
        comp_diff = lambda x, th: 0.0 * th
    elif kind == "scale_function":
        sf = recipe.scale
        if sf is None:
            raise ModelError("scale_function recipe needs a ScaleFunction")
        f_tilde = sf.w
        deriv = sf.w_prime
        second = sf.w_second
        right_limit = float(sf.w(a))
    elif kind == "custom":
        if recipe.f_tilde is None:
            raise ModelError("custom recipe needs f_tilde")
        f_tilde = array_function(recipe.f_tilde, inside)
        deriv, second = (array_function(given, inside) if given is not None
                         else (lambda y, k=k: stencil(f_tilde, y, k, a, b - a))
                         for k, given in ((1, recipe.f_tilde_deriv), (2, recipe.f_tilde_second)))
        right_limit = float(f_tilde(a + 1e-12 * max(1.0, abs(a))))
    else:
        raise ModelError(f"unknown extension kind {kind!r}")

    scale_ref = 1.0 + abs(f_at_a) + abs(right_limit)
    continuous = abs(f_at_a - right_limit) <= 1e-9 * scale_ref
    # bounded density across the junction: continuity plus finite one-sided slopes
    left = _left_slope(f, a)
    right = float(deriv(a + 1e-6 * (b - a)))
    smooth_junction = bool(continuous and abs(left) < _LARGE and abs(right) < _LARGE)

    kinks = tuple(sorted(set(float(k) for k in f_kinks)
                         | ({a} if not continuous else set())))
    below = a - SMALL_CUT * np.array([1.0, 0.75, 0.5, 0.25, 0.0])
    try:
        with np.errstate(all="ignore"):
            fb = np.asarray(f(below), dtype=float)
            continues_f = bool(np.all(np.abs(np.asarray(f_tilde(below), dtype=float) - fb)
                                      <= 4.0 * np.finfo(float).eps * np.abs(fb)))
    except Exception:
        continues_f = False
    return ExtendedPenalty(
        a=float(a), b=float(b), f=f, f_tilde=f_tilde, f_tilde_left_deriv=deriv,
        f_tilde_second=second, right_limit_at_a=right_limit, f_at_a=f_at_a,
        continuous_at_a=continuous, smooth_junction=smooth_junction, kinks=kinks,
        continues_f=continues_f, recipe=kind, compensated_diff=comp_diff)


# ---------------------------------------------------------------------------
# membership checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass(frozen=True)
class MembershipReport:
    items: tuple = ()
    corollary_condition: Optional[int] = None
    lemma_integrability: bool = False
    membership_unverified: bool = False

    @property
    def membership_ok(self):
        return all(item.passed for item in self.items)

    @property
    def simple_form_admissible(self):
        return self.corollary_condition is not None

    def summary(self):
        lines = [f"{'PASS' if it.passed else 'FAIL'} {it.name}: {it.detail}"
                 for it in self.items]
        lines.append(f"corollary condition: {self.corollary_condition}")
        lines.append(f"lemma integrability: {self.lemma_integrability}")
        if self.membership_unverified:
            lines.append("membership analytically unverified for this case")
        return "\n".join(lines)


def check_membership(penalty, model):
    """Numerical spot checks of the regularity class and Corollary conditions.

    Advisory by design: the conditions are analytic and cannot be decided
    exactly from black-box callables.  The report records the evidence, which
    Corollary simplification condition (if any) holds, and whether the
    integrability lemma applies so the resolvent integral may be split.

    The spot checks depend only on the penalty and the model's parameters, so
    the report is computed once per ``models.model_key`` and kept on the
    penalty; later calls with an equal model return the same (frozen) report.
    """
    key = _models.model_key(model)
    rep = penalty._reports.get(key)
    if rep is None:
        rep = penalty._reports.setdefault(key, _membership_report(penalty, model))
    return rep


def _membership_report(penalty, model):
    a, b = penalty.a, penalty.b
    items = []
    ys = np.linspace(a, b, MEMBERSHIP_GRID + 1)[1:]
    vals = np.asarray(penalty.f_tilde(ys), dtype=float)
    items.append(CheckItem("locally_bounded", bool(np.all(np.isfinite(vals))),
                           float(np.max(np.abs(vals))),
                           f"sup |f~| on grid = {np.max(np.abs(vals)):.4g}"))
    delta = (b - a) * 1e-7
    probe = ys[:-1]
    jumps = np.abs(penalty.f_tilde(probe + delta) - penalty.f_tilde(probe))
    deriv_bound = _grid_bound(penalty.f_tilde_left_deriv, a, b)
    jump_tol = max(MEMBERSHIP_TOL, 10.0 * (1.0 + deriv_bound) * delta)
    items.append(CheckItem("continuous_on_ab", bool(np.max(jumps) <= jump_tol),
                           float(np.max(jumps)),
                           f"max grid jump {np.max(jumps):.3g} (tol {jump_tol:.3g})"))

    # int_lam^inf f(x - t) Pi(dt) at every start x, one row each
    lam = TAIL_FACTOR * (b - a)
    xs = np.linspace(a, b, TAIL_POINTS + 2)[1:-1]
    dens = model.measure.density
    tails, errs = quad_rows(
        lambda i, t: penalty.f(xs[i] - t) * dens(t),
        np.tile([lam, lam + 30.0], TAIL_POINTS), np.tile([lam + 30.0, np.inf], TAIL_POINTS),
        rows=np.repeat(np.arange(TAIL_POINTS), 2), maps=np.tile([PLAIN, TAIL], TAIL_POINTS),
        epsabs=1e-11, epsrel=1e-9, panel_tol=None)
    # a divergent tail fails the check; a finite one must have converged
    finite = np.isfinite(tails)
    check_rows(tails[finite], errs[finite])
    tail_ok = bool(np.all(finite) and np.max(np.abs(tails)) < _LARGE)
    items.append(CheckItem("tail_integral_bounded", tail_ok,
                           float(np.max(np.abs(tails))),
                           f"sup_x |int_lam f(x-th) Pi(dth)| = {np.max(np.abs(tails)):.4g} at lam={lam:g}"))

    unbounded = _models.path_variation(model) == "unbounded"
    if unbounded:
        sb = _grid_bound(penalty.f_tilde_second, a, b)
        items.append(CheckItem("second_derivative_bounded",
                               bool(math.isfinite(sb) and sb < _LARGE), sb,
                               f"sup |h''| on grid = {sb:.4g}"))
    else:
        dgrid = np.asarray(penalty.f_tilde_left_deriv(ys[:-1]), dtype=float)
        tv = float(np.sum(np.abs(np.diff(dgrid))))
        ok = bool(np.all(np.isfinite(dgrid)) and np.max(np.abs(dgrid)) < _LARGE and tv < _LARGE)
        items.append(CheckItem("left_derivative_bv", ok, tv,
                               f"sup |h'| = {np.max(np.abs(dgrid)):.4g}, TV estimate {tv:.4g}"))

    integrable = model.measure.variation_part == _models.INTEGRABLE
    condition = None
    if integrable and model.sigma == 0.0:
        condition = 1
    elif integrable and penalty.continuous_at_a:
        condition = 2
    elif (not integrable) and penalty.smooth_junction:
        condition = 3
    # smoothness theory does not settle the scale_function case without a
    # Gaussian part at unbounded variation: the general and simple identities
    # refuse it (overshoot_of_scale_function covers W^(q) itself)
    return MembershipReport(
        items=tuple(items), corollary_condition=condition,
        lemma_integrability=bool(integrable or penalty.smooth_junction),
        membership_unverified=(penalty.recipe == "scale_function" and unbounded
                               and model.sigma == 0.0))


# ---------------------------------------------------------------------------
# generator evaluation
# ---------------------------------------------------------------------------

def _panels(lo, hi, cand):
    """Per-point panels of [lo_i, hi_i] cut at the candidate breaks strictly inside.

    ``cand`` holds one row of candidate breaks per point (inf where none).
    Returns the point index, left and right end of every panel, point-major.
    """
    inner = np.where((cand > lo[:, None]) & (cand < hi[:, None]), cand, np.inf)
    inner.sort(axis=1)
    edges = np.column_stack([lo, np.minimum(inner, hi[:, None]), hi])
    left, right = edges[:, :-1], edges[:, 1:]
    used = right > left
    pt = np.broadcast_to(np.arange(lo.size)[:, None], used.shape)
    return pt[used], left[used], right[used]


def check_tail_rows(vals, errs, z):
    """Jump-tail integrals, one row per point z: a non-finite row is a divergent
    tail (HypothesisViolationError at its z); the rest must pass ``check_rows``."""
    if not np.all(np.isfinite(vals)):
        raise HypothesisViolationError(
            f"divergent jump-tail integral at z = {z[np.argmin(np.isfinite(vals))]:g}")
    check_rows(vals, errs, where=z)


def apply_generator(penalty, model, q, x):
    """(A - q) applied to the extension at x in (a, b); x may be an array.

    The jump integral is split at the Taylor-compensated region near 0, at
    every kink image x - k, at the penalty/extension branch switch x - a and
    at the compensation cutoff 1; the [0, SMALL_CUT] panel is summed as
    h''(x)/2 * int th^2 Pi(dth) when the measure has infinite activity.  The
    panels of every point are rows of one ``quad_rows`` call.
    """
    a, b = penalty.a, penalty.b
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not np.all((a < x) & (x < b)):
        bad = x[~((a < x) & (x < b))][0]
        raise ModelError(f"generator evaluation needs x in ({a}, {b}); got {bad}")
    meas = model.measure
    hx = np.asarray(penalty.f_tilde(x), dtype=float)
    hpx = np.asarray(penalty.f_tilde_left_deriv(x), dtype=float)
    val = model.gamma * hpx - q * hx
    if model.sigma > 0.0:
        val = val + 0.5 * model.sigma ** 2 * penalty.f_tilde_second(x)
    if meas.family == "none":
        return val.item() if scalar else val

    n = x.size
    # the breaks x - a and x - k of every point, duplicates dropped
    cand = np.column_stack([x - a] + [np.where(k < x, x - k, np.inf)
                                      for k in penalty.kinks if k != a])
    total = np.zeros(n)
    lo = np.zeros(n)
    if meas.activity == _models.INFINITE_ACTIVITY:
        # the extension is smooth up to the first break, so the Taylor panel
        # may run all the way to it when that is closer than the default cut;
        # a is no break when the extension continues f across it (the
        # compensated difference there would lose eps * |h| * Pi(x - a, inf))
        smooth_at_a = penalty.continues_f and a not in penalty.kinks
        lo = np.minimum(SMALL_CUT, cand[:, int(smooth_at_a):].min(axis=1, initial=np.inf))
        total = 0.5 * penalty.f_tilde_second(x) * meas.mass2_below(lo)
    near_pt, near_lo, near_hi = _panels(lo, np.ones(n), cand)
    far_max = np.max(np.where(np.isfinite(cand) & (cand > 1.0), cand, 1.0), axis=1)
    # the far row ends 1 past its last break (x - a among them), and at 2 or later
    hi_cut = np.maximum(2.0, far_max + 1.0)
    far_pt, far_lo, far_hi = _panels(np.ones(n), hi_cut, cand)
    n_near = near_pt.size
    # rows: every near panel, then one far row and one tail row per point
    pt = np.concatenate([near_pt, np.arange(n), np.arange(n)])
    rows = np.concatenate([np.arange(n_near), n_near + far_pt, n_near + n + np.arange(n)])
    maps = np.concatenate([np.where(near_lo > 0.0, LOG, PLAIN),
                           np.full(far_pt.size, PLAIN), np.full(n, TAIL)])
    slope = np.concatenate([hpx[near_pt], np.zeros(2 * n)])
    h, dens, cdiff = penalty.h, meas.density, penalty.compensated_diff

    def integrand(r, th):
        # near rows: h(x-th) - h(x) + h'(x) th, or its exact form while x - th > a
        p = pt[r]
        xr = x[p]
        d = np.empty(th.shape)
        exact = (r < n_near) & (th < xr - a) if cdiff is not None else np.zeros(th.shape, bool)
        if exact.any():
            d[exact] = cdiff(xr[exact], th[exact])
        rest = ~exact
        d[rest] = h(xr[rest] - th[rest]) - hx[p[rest]] + slope[r[rest]] * th[rest]
        return d * dens(th)

    # compensated-integrand noise (~eps * sup|h| * density) can dominate tiny
    # panels near a singular density; near panels are judged on the assembled value
    vals, errs = quad_rows(integrand, np.concatenate([near_lo, far_lo, hi_cut]),
                           np.concatenate([near_hi, far_hi, np.full(n, np.inf)]),
                           rows=rows, maps=maps, epsabs=1e-12, epsrel=1e-10,
                           panel_tol=None)
    check_rows(vals[:n_near], errs[:n_near], np.inf, where=x[near_pt])
    check_rows(vals[n_near:n_near + n], errs[n_near:n_near + n], where=x)
    check_tail_rows(vals[n_near + n:], errs[n_near + n:], x)
    total = total + np.bincount(pt, vals, n)
    toterr = np.bincount(pt, errs, n)
    out = val + total
    bad = toterr > np.maximum(1e-7, 1e-5 * np.abs(out))
    if bad.any():
        raise NumericalAccuracyError("generator jump integral did not converge",
                                     achieved=float(toterr[bad][0]))
    return out.item() if scalar else out


def generator_closure(penalty, model, q):
    """z -> (A - q) h(z) on arrays; looks ``apply_generator`` up in this module at each call."""
    return lambda z: apply_generator(penalty, model, q, z)


def require_simple_form(report):
    """Raise unless one of the Corollary simplification conditions holds."""
    if not report.simple_form_admissible:
        raise ConditionNotMetError(
            "no simplification condition holds; use the general identity\n"
            + report.summary())
