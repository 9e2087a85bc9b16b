"""Overshoot identities for reflected and refracted processes.

The identities mirror the plain two-sided-exit one, with three ingredients
that depend on the modified process: a boundary functional (discounted
regulator integral for reflection at b, discounted up-exit transform for
refraction), the killed resolvent density on [a, b], and the creeping
transform.  Closed forms for these exist in the literature but are not the
business of this package; the default provider estimates all three by
simulation, and a plug-in provider accepts user-supplied formulas (validated
against the simulation in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import models as _models
from . import montecarlo as mc
from .errors import ModelError, UnsupportedCaseError
from .generator import apply_generator
from .identities import GerberShiuValue
from .quadrature import quad_singular_left

# 3-point Gauss-Legendre on [-1, 1]
_GL_NODES = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GL_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass(frozen=True)
class ReflectedSpec:
    """Process reflected at the upper level b, killed below a, started at x."""

    model: object
    b: float
    a: float
    q: float
    x: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ModelError("need a < b")
        if not (self.a <= self.x <= self.b):
            raise ModelError("need a <= x <= b")
        if self.q < 0:
            raise ModelError("need q >= 0")


@dataclass(frozen=True)
class RefractedSpec:
    """Drift reduced by delta above the level c; exit problem on [a, b]."""

    model: object
    delta: float
    c: float
    a: float
    b: float
    q: float
    x: float

    def __post_init__(self):
        if not (self.a < self.c < self.b):
            raise ModelError("need a < c < b")
        if not (self.a <= self.x <= self.b):
            raise ModelError("need a <= x <= b")
        if self.delta < 0:
            raise ModelError("need delta >= 0")
        # delta = 0 is tolerated for degeneracy checks; the SDE itself needs
        # delta below the natural drift when small jumps are integrable
        if (self.delta > 0
                and self.model.measure.variation_part == _models.INTEGRABLE
                and self.delta >= self.model.natural_drift):
            raise ModelError("need delta < gamma + int_0^1 th Pi(dth)")


@dataclass
class Ingredients:
    """Identity ingredients with their uncertainty (zero for closed forms).

    ``boundary`` is E_x[int_0^{T_a^-} e^{-qs} dxi_s] for reflection and
    E_x[e^{-q kappa_b^+} 1{up first}] for refraction.
    """

    source: str
    boundary: float
    boundary_se: float
    creeping: float
    creeping_se: float
    # histogram resolvent (monte_carlo source)
    edges: Optional[np.ndarray] = None
    density: Optional[np.ndarray] = None
    density_se: Optional[np.ndarray] = None
    # callable resolvent (closed-form source)
    resolvent: Optional[Callable] = None


class MonteCarloProvider:
    """Estimates every ingredient by simulating the modified process.

    Results are cached per spec; the creeping ingredient is pinned to zero
    without simulation when sigma = 0 (the process cannot creep).
    """

    def __init__(self, scheme=None, n_paths=50_000, n_bins=200):
        self.scheme = scheme if scheme is not None else mc.SimScheme()
        self.n_paths = int(n_paths)
        self.n_bins = int(n_bins)
        self._cache = {}

    def _key(self, spec):
        # keyed on the model's parameters, not its id: ids are reused after
        # garbage collection
        model = spec.model
        params = tuple((k, tuple(v) if isinstance(v, (list, np.ndarray)) else v)
                       for k, v in sorted(model.measure.params.items()))
        vals = tuple(getattr(spec, name) for name in spec.__dataclass_fields__
                     if name != "model")
        return (type(spec).__name__, model.gamma, model.sigma, model.measure.family,
                params) + vals

    def reflected(self, spec):
        key = self._key(spec)
        if key not in self._cache:
            samples, res = mc.simulate_reflected(
                spec.model, spec.b, spec.a, spec.x, self.scheme, self.n_paths,
                q=spec.q, n_bins=self.n_bins)
            lt, lt_se = mc._mean_stderr(samples.xi_discounted)
            if spec.model.sigma == 0.0:
                creep, creep_se = 0.0, 0.0
            else:
                creep, creep_se = mc.estimate_creeping(samples, spec.q)
            self._cache[key] = Ingredients(
                source="monte_carlo", boundary=lt, boundary_se=lt_se,
                creeping=creep, creeping_se=creep_se,
                edges=res.edges, density=res.density, density_se=res.stderr)
        return self._cache[key]

    def refracted(self, spec):
        key = self._key(spec)
        if key not in self._cache:
            samples, res = mc.simulate_refracted(
                spec.model, spec.delta, spec.c, spec.a, spec.b, spec.x,
                self.scheme, self.n_paths, q=spec.q, n_bins=self.n_bins)
            up, up_se = mc.estimate_exit_transform(samples, spec.q, mc.UP)
            if spec.model.sigma == 0.0:
                creep, creep_se = 0.0, 0.0
            else:
                creep, creep_se = mc.estimate_creeping(samples, spec.q)
            self._cache[key] = Ingredients(
                source="monte_carlo", boundary=up, boundary_se=up_se,
                creeping=creep, creeping_se=creep_se,
                edges=res.edges, density=res.density, density_se=res.stderr)
        return self._cache[key]


class ClosedFormProvider:
    """Plug-in ingredients from user-supplied scale-function formulas.

    ``boundary_fn(spec)``, ``creeping_fn(spec)`` and ``resolvent_fn(spec, z)``
    must implement the corresponding functionals; this package deliberately
    ships no such formulas (they belong to the wider literature), it only
    validates a configured provider against the simulation one.
    """

    def __init__(self, boundary_fn, resolvent_fn, creeping_fn):
        self.boundary_fn = boundary_fn
        self.resolvent_fn = resolvent_fn
        self.creeping_fn = creeping_fn

    def _build(self, spec):
        creep = 0.0 if spec.model.sigma == 0.0 else float(self.creeping_fn(spec))
        return Ingredients(
            source="literature_closed_form",
            boundary=float(self.boundary_fn(spec)), boundary_se=0.0,
            creeping=creep, creeping_se=0.0,
            resolvent=lambda z: float(self.resolvent_fn(spec, z)))

    reflected = _build
    refracted = _build


def _integral_against_ingredients(Gfunc, ing, a, b, splits=()):
    """int_a^b G(z) * resolvent(z) dz plus its propagated MC uncertainty."""
    if ing.resolvent is not None:
        pts = sorted(s for s in splits if a < s < b)
        val, err = quad_singular_left(lambda z: Gfunc(z) * ing.resolvent(z), a, b,
                                      points=pts, panel_tol=1e-6)
        return val, err
    total = 0.0
    spread = 0.0
    edges = ing.edges
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        segs = [lo] + [s for s in splits if lo < s < hi] + [hi]
        gint = 0.0
        for s0, s1 in zip(segs[:-1], segs[1:]):
            mid = 0.5 * (s0 + s1)
            half = 0.5 * (s1 - s0)
            gint += half * float(np.sum(_GL_WEIGHTS * [Gfunc(mid + half * t)
                                                       for t in _GL_NODES]))
        total += gint * ing.density[k]
        spread += abs(gint) * ing.density_se[k]
    return total, spread


def reflected_overshoot(penalty, spec, provider):
    """Discounted penalty at first passage below a for the process reflected at b.

    Starting exactly at a is rejected: the boundary-start behaviour of the
    reflected identity is not settled, so no guess is made.
    """
    if spec.x == spec.a:
        raise UnsupportedCaseError("boundary start x = a is not supported for "
                                   "reflected evaluation")
    if abs(penalty.a - spec.a) > 1e-12 or abs(penalty.b - spec.b) > 1e-12:
        raise ModelError("penalty interval must match the spec interval")
    model, q = spec.model, spec.q
    ing = provider.reflected(spec)

    def G(z):
        return apply_generator(penalty, model, q, z)

    boundary = float(penalty.f_tilde(spec.x)) \
        - ing.boundary * float(penalty.f_tilde_left_deriv(spec.b))
    integral, int_err = _integral_against_ingredients(G, ing, spec.a, spec.b,
                                                      splits=penalty.kinks)
    creep = (penalty.f_at_a - penalty.right_limit_at_a) * ing.creeping
    accuracy = (abs(float(penalty.f_tilde_left_deriv(spec.b))) * ing.boundary_se
                + int_err
                + abs(penalty.f_at_a - penalty.right_limit_at_a) * ing.creeping_se)
    return GerberShiuValue(
        value=boundary + integral + creep,
        boundary_term=boundary, integral_term=integral, creeping_term=creep,
        formula_used="reflected", accuracy=accuracy,
        condition_note=f"ingredients: {ing.source}")


def refracted_overshoot(penalty, spec, provider):
    """Discounted penalty at first passage below a for the refracted process.

    The integrand gains the extra -delta 1{z > c} f~'(z) term; the integral
    panel is always split at z = c (indicator jump).
    """
    if spec.x == spec.a:
        raise UnsupportedCaseError("boundary start x = a is not supported for "
                                   "refracted evaluation")
    if abs(penalty.a - spec.a) > 1e-12 or abs(penalty.b - spec.b) > 1e-12:
        raise ModelError("penalty interval must match the spec interval")
    model, q, delta, c = spec.model, spec.q, spec.delta, spec.c
    ing = provider.refracted(spec)

    def G(z):
        out = apply_generator(penalty, model, q, z)
        if z > c:
            out -= delta * float(penalty.f_tilde_left_deriv(z))
        return out

    boundary = float(penalty.f_tilde(spec.x)) - ing.boundary * float(penalty.f_tilde(spec.b))
    integral, int_err = _integral_against_ingredients(
        G, ing, spec.a, spec.b, splits=tuple(penalty.kinks) + (c,))
    creep = (penalty.f_at_a - penalty.right_limit_at_a) * ing.creeping
    accuracy = (abs(float(penalty.f_tilde(spec.b))) * ing.boundary_se
                + int_err
                + abs(penalty.f_at_a - penalty.right_limit_at_a) * ing.creeping_se)
    return GerberShiuValue(
        value=boundary + integral + creep,
        boundary_term=boundary, integral_term=integral, creeping_term=creep,
        formula_used="refracted", accuracy=accuracy,
        condition_note=f"ingredients: {ing.source}")
