"""Exit, resolvent, creeping and overshoot-functional identities.

Everything here evaluates expectations of the form

    E_x[ e^{-q tau_a^-} f(X_{tau_a^-}) 1{tau_a^- < tau_b^+} ]

and its ingredients in terms of scale functions.  The central evaluator takes
a penalty plus a chosen extension; the value does not depend on which
admissible extension was chosen, and the test-suite checks that independence
extensively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models as _models
from .errors import (ConditionNotMetError, HypothesisViolationError, ModelError,
                     NumericalAccuracyError)
from .generator import (TAIL_FACTOR, check_membership, generator_closure,
                        penalty_function, require_simple_form)
from .quadrature import (LOG, PANEL_TOLERANCE, PLAIN, SQRT, TAIL, breaks, check_rows,
                         quad_rows)
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
    """E_x[e^{-q tau_b^+} 1{tau_b^+ < tau_a^-}] = W(x-a)/W(b-a)."""
    return float(sf.w(prob.x - prob.a) / sf.w(prob.b - prob.a))


def resolvent_density(sf, prob, z):
    """Density of the killed q-resolvent at z in [a, b], clamped to >= 0."""
    a, b, x = prob.a, prob.b, prob.x
    if not (a <= z <= b):
        raise ModelError("resolvent density is supported on [a, b]")
    val = float(sf.w(x - a) * sf.w(b - z) / sf.w(b - a) - sf.w(x - z))
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
    sigma = sf.model.sigma
    if sigma == 0.0:
        return 0.0
    ratio = sf.w(x - a) / sf.w(b - a)
    return float(0.5 * sigma ** 2 * (sf.w_prime(x - a) - ratio * sf.w_prime(b - a)))


def _resolvent_integral(sf, prob, G, kinks=(), *, panel_tol=PANEL_TOLERANCE):
    """int_a^b G(z) * [W(x-a)W(b-z)/W(b-a) - W(x-z)] dz, with G taking arrays.

    Panels break at z = x (kink of W(x-z)) and at declared kinks; the panel
    touching a uses the square-root graded substitution, which absorbs both
    the W' blow-up of unbounded-variation models and jump-tail factors in G
    that diverge at a.  Both panels are rows of one ``quad_rows`` call.
    """
    a, b, x = prob.a, prob.b, prob.x
    ratio = float(sf.w(x - a) / sf.w(b - a))

    def integrand(r, z):
        return G(z) * (ratio * sf.w(b - z) - sf.w(x - z))

    left, right = breaks(a, x, kinks), breaks(x, b, kinks)
    sizes = [left[0].size, right[0].size]
    # an empty panel (the second at x = b, the first at x = a) adds exact zeros
    vals, errs = quad_rows(integrand, np.concatenate([left[0], right[0]]),
                           np.concatenate([left[1], right[1]]),
                           rows=np.repeat([0, 1], sizes),
                           maps=np.repeat([SQRT, SQRT if x == a else PLAIN], sizes),
                           panel_tol=panel_tol)
    return float(vals.sum()), float(errs.sum())


def _scale_weighted_integral(sf, G, a, hi, kinks=()):
    """int_a^hi G(z) W(hi - z) dz, with G taking arrays.

    Split around a pivot value of G: the constant part integrates exactly
    through the W antiderivative (so constant-generator cases reproduce the
    Z identity to machine precision; adaptive quadrature alone resolves the
    many-piece interpolant only to a few 1e-9), and only the residual goes
    through adaptive quadrature, with the square-root graded substitution at
    z = a, where the generator may blow up.
    """
    span = hi - a
    g_ref = float(G(a + 0.5 * span))
    base = g_ref * float(sf.w_antiderivative(span))
    lo, up = breaks(a, hi, kinks)
    corr, err = quad_rows(lambda r, z: (G(z) - g_ref) * sf.w(hi - z), lo, up,
                          rows=np.zeros(lo.size, dtype=np.intp), maps=SQRT)
    return base + float(corr[0]), float(err[0])


def _check_alignment(penalty, prob):
    if abs(penalty.a - prob.a) > 1e-12 or abs(penalty.b - prob.b) > 1e-12:
        raise ModelError("penalty extension and exit problem use different intervals")


def _identity_setup(penalty, sf, prob, membership, name):
    """Checks and terms shared by the general and simple identities.

    Returns the membership report (computed when not given), the ratio
    W(x-a)/W(b-a) and the boundary term f~(x) - ratio * f~(b).
    """
    _check_alignment(penalty, prob)
    a, b, x = prob.a, prob.b, prob.x
    if not a < x <= b:
        raise ModelError(f"{name} identity needs a < x <= b; use boundary_start at x = a")
    if membership is None:
        membership = check_membership(penalty, sf.model)
    ratio = float(sf.w(x - a) / sf.w(b - a))
    boundary = float(penalty.f_tilde(x)) - ratio * float(penalty.f_tilde(b))
    return membership, ratio, boundary


def overshoot_functional_general(penalty, sf, prob, membership=None, override=False):
    """The general identity: extension + resolvent integral + creeping correction.

    Valid for any admissible extension; requires a < x <= b (x = a is a
    genuinely different case, see ``boundary_start``).
    """
    membership, ratio, boundary = _identity_setup(penalty, sf, prob, membership, "general")
    if membership.membership_unverified and not override:
        raise ConditionNotMetError(
            "membership is analytically unverified for this case; pass override=True")

    G = generator_closure(penalty, sf.model, prob.q)
    integral, quad_err = _resolvent_integral(sf, prob, G, kinks=penalty.kinks)
    creep = (penalty.f_at_a - penalty.right_limit_at_a) * creeping_transform(sf, prob)
    scale_err = sf.tolerance_estimate * (abs(boundary) + abs(integral) + 1.0)
    note = "membership unverified, override" if membership.membership_unverified else ""
    return GerberShiuValue(
        value=boundary + integral + creep,
        boundary_term=boundary, integral_term=integral, creeping_term=creep,
        formula_used="general", accuracy=quad_err + scale_err,
        condition_note=note)


def overshoot_functional_simple(penalty, sf, prob, membership=None, override=False):
    """The simplified identity, valid under one of the Corollary conditions.

    Splits the resolvent integral into two scale-weighted pieces; the
    creeping correction vanishes under each admissibility condition.
    """
    membership, ratio, boundary = _identity_setup(penalty, sf, prob, membership, "simple")
    note = ""
    if not override:
        require_simple_form(membership)
        note = "condition verified numerically"
    elif membership.membership_unverified:
        note = "membership unverified, override"

    a, b, x = prob.a, prob.b, prob.x
    G = generator_closure(penalty, sf.model, prob.q)
    i_x, err_x = _scale_weighted_integral(sf, G, a, x, kinks=penalty.kinks)
    i_b, err_b = _scale_weighted_integral(sf, G, a, b, kinks=tuple(penalty.kinks) + (x,))
    integral = -i_x + ratio * i_b
    scale_err = sf.tolerance_estimate * (abs(boundary) + abs(integral) + 1.0)
    return GerberShiuValue(
        value=boundary + integral,
        boundary_term=boundary, integral_term=integral, creeping_term=0.0,
        formula_used="simple", accuracy=err_x + err_b + scale_err,
        condition_note=note)


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
        if not np.all(np.isfinite(out)):
            raise HypothesisViolationError(
                f"divergent jump-tail integral at z = {z[np.argmin(np.isfinite(out))]:g}")
        check_rows(out, errs, where=z)
        return out

    f = penalty_function(f, a, b)
    integral, quad_err = _resolvent_integral(sf, prob, G0)
    f_at_a = float(f(a))
    creep = f_at_a * creeping_transform(sf, prob)
    scale_err = sf.tolerance_estimate * (abs(integral) + 1.0)
    return GerberShiuValue(
        value=integral + creep,
        boundary_term=0.0, integral_term=integral, creeping_term=creep,
        formula_used="zero_extension", accuracy=quad_err + scale_err)


def boundary_start(penalty, sf, prob):
    """The x = a case of the main identity.

    Unbounded variation: immediate passage, value f(a) exactly.  Bounded
    variation: the W(0) boundary formula.  Dispatch is exact on x == a.
    """
    _check_alignment(penalty, prob)
    if prob.x != prob.a:
        raise ModelError("boundary_start requires x == a exactly")
    model = sf.model
    if _models.path_variation(model) == "unbounded":
        return penalty.f_at_a
    a, b = prob.a, prob.b
    G = generator_closure(penalty, model, prob.q)
    i_b, _ = _scale_weighted_integral(sf, G, a, b, kinks=penalty.kinks)
    ratio = sf.w0 / float(sf.w(b - a))
    return float(penalty.right_limit_at_a) - ratio * (float(penalty.f_tilde(b)) - i_b)


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

    ratio = float(sf_y.w(x - a) / sf_y.w(b - a))
    # panel_tol loosened: at a = 0 the W' blow-up leaves a mild residual
    # in the error estimate even after the graded substitution
    integral, _ = _resolvent_integral(sf_y, prob, K, panel_tol=2e-5)
    return float(sf_x.w(x)) - ratio * float(sf_x.w(b)) + integral


def mass_balance_gap(sf, prob):
    """|q * int resolvent + up-transform + down-transform(f=1) - 1|.

    Conservation over the two exit routes plus killing; a consistency gauge
    used by tests and the comparison command.
    """
    a, b, q, x = prob.a, prob.b, prob.q, prob.x
    res_int, _ = _resolvent_integral(sf, prob, np.ones_like)
    up = two_sided_exit_up(sf, prob)
    down = float(sf.z(x - a) - sf.w(x - a) * sf.z(b - a) / sf.w(b - a))
    return abs(q * res_int + up + down - 1.0)
