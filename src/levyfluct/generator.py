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
from .errors import ConditionNotMetError, ModelError, NumericalAccuracyError
from .quadrature import quad, quad_log

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
    'custom' (user callables).
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
    keeps the true penalty value for the creeping correction.
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
    deriv_bound: float
    second_bound: float
    kinks: tuple = ()              # y-locations where h is not smooth (quadrature breaks)
    recipe: str = "custom"
    # optional exact form of f~(x-th) - f~(x) + f~'(x) th for x-th still above a;
    # kills catastrophic cancellation against singular jump densities
    compensated_diff: Optional[Callable] = None

    def h(self, y):
        if y > self.a:
            return float(self.f_tilde(y))
        if y == self.a:
            return self.right_limit_at_a
        return float(self.f(y))


def _left_slope(f, a, h=1e-6):
    d1 = (float(f(a)) - float(f(a - h))) / h
    d2 = (float(f(a)) - float(f(a - 0.5 * h))) / (0.5 * h)
    return 2.0 * d2 - d1


def _numeric_second(func, y, h):
    return (float(func(y + h)) - 2.0 * float(func(y)) + float(func(y - h))) / (h * h)


def _grid_bound(func, lo, hi, n=257):
    ys = np.linspace(lo, hi, n + 2)[1:-1]
    vals = np.array([abs(float(func(y))) for y in ys])
    return float(np.max(vals))


def extend_penalty(f, a, b, recipe, f_kinks=()):
    """Build an ExtendedPenalty from a penalty callable and a recipe.

    ``f_kinks`` lists non-smooth points of the penalty itself (e.g. 0 for a
    scale-function penalty); they become forced quadrature breaks.
    """
    if not a < b:
        raise ModelError("need a < b")
    if isinstance(recipe, str):
        recipe = ExtensionRecipe(kind=recipe)
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
        deriv = lambda y: slope
        second = lambda y: 0.0
        right_limit = slope * a + level
        comp_diff = lambda x, th: 0.0
    elif kind == "scale_function":
        sf = recipe.scale
        if sf is None:
            raise ModelError("scale_function recipe needs a ScaleFunction")
        f_tilde = sf.w
        deriv = sf.w_prime
        second = sf.w_second
        right_limit = float(sf.w(a)) if a > 0 else sf.w0
    elif kind == "custom":
        if recipe.f_tilde is None:
            raise ModelError("custom recipe needs f_tilde")
        f_tilde = recipe.f_tilde
        deriv = recipe.f_tilde_deriv
        if deriv is None:
            step = 1e-6 * (b - a)
            deriv = lambda y, _s=step: (float(f_tilde(min(y, b))) - float(f_tilde(y - _s))) / _s
        second = recipe.f_tilde_second
        if second is None:
            step2 = 1e-5 * (b - a)
            second = lambda y, _s=step2: _numeric_second(
                f_tilde, min(max(y, a + 2 * _s), b - 2 * _s), _s)
        right_limit = float(f_tilde(a + 1e-12 * max(1.0, abs(a))))
    else:
        raise ModelError(f"unknown extension kind {kind!r}")

    scale_ref = 1.0 + abs(f_at_a) + abs(right_limit)
    continuous = abs(f_at_a - right_limit) <= 1e-9 * scale_ref
    # bounded density across the junction: continuity plus finite one-sided slopes
    left = _left_slope(f, a)
    right = float(deriv(a + 1e-6 * (b - a)))
    smooth_junction = bool(continuous and abs(left) < _LARGE and abs(right) < _LARGE)

    deriv_bound = _grid_bound(deriv, a, b)
    second_bound = _grid_bound(second, a, b)
    kinks = tuple(sorted(set(float(k) for k in f_kinks)
                         | ({a} if not continuous else set())))
    return ExtendedPenalty(
        a=float(a), b=float(b), f=f, f_tilde=f_tilde, f_tilde_left_deriv=deriv,
        f_tilde_second=second, right_limit_at_a=right_limit, f_at_a=f_at_a,
        continuous_at_a=continuous, smooth_junction=smooth_junction,
        deriv_bound=deriv_bound, second_bound=second_bound, kinks=kinks,
        recipe=kind, compensated_diff=comp_diff)


# ---------------------------------------------------------------------------
# membership checking
# ---------------------------------------------------------------------------

@dataclass
class CheckItem:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class MembershipReport:
    items: list = field(default_factory=list)
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
    """
    a, b = penalty.a, penalty.b
    rep = MembershipReport()
    ys = np.linspace(a, b, MEMBERSHIP_GRID + 1)[1:]
    vals = np.array([float(penalty.f_tilde(y)) for y in ys])
    rep.items.append(CheckItem("locally_bounded", bool(np.all(np.isfinite(vals))),
                               float(np.max(np.abs(vals))),
                               f"sup |f~| on grid = {np.max(np.abs(vals)):.4g}"))
    delta = (b - a) * 1e-7
    probe = ys[:-1]
    jumps = np.array([abs(float(penalty.f_tilde(y + delta)) - float(penalty.f_tilde(y)))
                      for y in probe])
    jump_tol = max(MEMBERSHIP_TOL, 10.0 * (1.0 + penalty.deriv_bound) * delta)
    rep.items.append(CheckItem("continuous_on_ab", bool(np.max(jumps) <= jump_tol),
                               float(np.max(jumps)),
                               f"max grid jump {np.max(jumps):.3g} (tol {jump_tol:.3g})"))

    lam = TAIL_FACTOR * (b - a)
    xs = np.linspace(a, b, TAIL_POINTS + 2)[1:-1]
    tails = np.empty(TAIL_POINTS)
    dens = model.measure.density
    for i, x in enumerate(xs):
        v1, _ = quad(lambda t: float(penalty.f(x - t)) * float(dens(t)), lam, lam + 30.0,
                     epsabs=1e-11, epsrel=1e-9)
        v2, _ = quad(lambda t: float(penalty.f(x - t)) * float(dens(t)), lam + 30.0, np.inf,
                     epsabs=1e-11, epsrel=1e-9)
        tails[i] = v1 + v2
    tail_ok = bool(np.all(np.isfinite(tails)) and np.max(np.abs(tails)) < _LARGE)
    rep.items.append(CheckItem("tail_integral_bounded", tail_ok,
                               float(np.max(np.abs(tails))),
                               f"sup_x |int_lam f(x-th) Pi(dth)| = {np.max(np.abs(tails)):.4g} at lam={lam:g}"))

    unbounded = _models.path_variation(model) == "unbounded"
    if unbounded:
        sb = penalty.second_bound
        rep.items.append(CheckItem("second_derivative_bounded",
                                   bool(math.isfinite(sb) and sb < _LARGE), sb,
                                   f"sup |h''| on grid = {sb:.4g}"))
    else:
        dgrid = np.array([float(penalty.f_tilde_left_deriv(y)) for y in ys[:-1]])
        tv = float(np.sum(np.abs(np.diff(dgrid))))
        ok = bool(np.all(np.isfinite(dgrid)) and np.max(np.abs(dgrid)) < _LARGE and tv < _LARGE)
        rep.items.append(CheckItem("left_derivative_bv", ok, tv,
                                   f"sup |h'| = {np.max(np.abs(dgrid)):.4g}, TV estimate {tv:.4g}"))

    integrable = model.measure.variation_part == _models.INTEGRABLE
    if integrable and model.sigma == 0.0:
        rep.corollary_condition = 1
    elif integrable and penalty.continuous_at_a:
        rep.corollary_condition = 2
    elif (not integrable) and penalty.smooth_junction:
        rep.corollary_condition = 3
    rep.lemma_integrability = bool(integrable or penalty.smooth_junction)

    if (penalty.recipe == "scale_function" and unbounded and model.sigma == 0.0):
        # smoothness theory does not settle this case; evaluation may be
        # forced with override=True and the result carries this flag
        rep.membership_unverified = True
    return rep


# ---------------------------------------------------------------------------
# generator evaluation
# ---------------------------------------------------------------------------

def apply_generator(penalty, model, q, x):
    """(A - q) applied to the extension at x in (a, b).

    The jump integral is split at the Taylor-compensated region near 0, at
    every kink image x - k, at the penalty/extension branch switch x - a and
    at the compensation cutoff 1; the [0, SMALL_CUT] panel is summed as
    h''(x)/2 * int th^2 Pi(dth) when the measure has infinite activity.
    """
    a, b = penalty.a, penalty.b
    if not (a < x < b):
        raise ModelError(f"generator evaluation needs x in ({a}, {b}); got {x}")
    meas = model.measure
    hx = float(penalty.f_tilde(x))
    hpx = float(penalty.f_tilde_left_deriv(x))
    val = model.gamma * hpx - q * hx
    if model.sigma > 0.0:
        val += 0.5 * model.sigma ** 2 * float(penalty.f_tilde_second(x))
    if meas.family == "none":
        return val

    h = penalty.h
    dens = meas.density
    cdiff = penalty.compensated_diff

    def comp(th):
        if cdiff is not None and th < x - a:
            return cdiff(x, th) * float(dens(th))
        return (h(x - th) - hx + hpx * th) * float(dens(th))

    def plain(th):
        return (h(x - th) - hx) * float(dens(th))

    total = 0.0
    toterr = 0.0
    lo = 0.0
    if meas.activity == _models.INFINITE_ACTIVITY:
        nearest = x - a
        for k in penalty.kinks:
            if k < x:
                nearest = min(nearest, x - k)
        # the extension is smooth up to the first break, so the Taylor panel
        # may run all the way to it when that is closer than the default cut
        cut = min(SMALL_CUT, nearest)
        h2x = float(penalty.f_tilde_second(x))
        total += 0.5 * h2x * meas.squared_mass_below(cut)
        lo = cut

    breaks = sorted({x - a} | {x - k for k in penalty.kinks if k < x})
    near = [p for p in breaks if lo < p < 1.0]
    edges = [lo] + near + [1.0]
    # compensated-integrand noise (~eps * sup|h| * density) can dominate tiny
    # panels near a singular density; failure is judged on the assembled value
    for e0, e1 in zip(edges[:-1], edges[1:]):
        if e0 > 0.0:
            # log space: power-law densities span many decades near 0
            v, e = quad_log(comp, e0, e1, epsabs=1e-12, epsrel=1e-10,
                            panel_tol=math.inf)
        else:
            v, e = quad(comp, e0, e1, epsabs=1e-12, epsrel=1e-10,
                        panel_tol=math.inf)
        total += v
        toterr += e
    far = [p for p in breaks if p > 1.0]
    hi_cut = max(2.0, (max(far) if far else 1.0) + 1.0, x - a + 1.0)
    v, e = quad(plain, 1.0, hi_cut, points=far, epsabs=1e-12, epsrel=1e-10)
    total += v
    toterr += e
    v, e = quad(plain, hi_cut, np.inf, epsabs=1e-12, epsrel=1e-10)
    total += v
    toterr += e
    out = val + total
    if toterr > max(1e-7, 1e-5 * abs(out)):
        raise NumericalAccuracyError("generator jump integral did not converge",
                                     achieved=toterr)
    return out


def generator_closure(penalty, model, q):
    """z -> (A - q) h(z); looks ``apply_generator`` up in this module at each call."""
    return lambda z: apply_generator(penalty, model, q, z)


def require_simple_form(report):
    """Raise unless one of the Corollary simplification conditions holds."""
    if not report.simple_form_admissible:
        raise ConditionNotMetError(
            "no simplification condition holds; use the general identity\n"
            + report.summary())
