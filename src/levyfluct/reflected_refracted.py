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
from .errors import UnsupportedCaseError
from .generator import array_function, generator_closure
from .identities import GerberShiuValue, _check_alignment
from .quadrature import SQRT, breaks, quad_rows

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
        _models.check_exit(self.a, self.b, self.q, self.x)


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
        _models.check_exit(self.a, self.b, self.q, self.x)
        _models.check_refraction(self.model, self.delta, self.c, self.a, self.b)


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

    def _simulated(self, spec, simulate, args, boundary):
        """Ingredients from one cached run of ``simulate(*args, ...)``.

        ``boundary`` maps the run's exit samples to the boundary ingredient
        and its standard error.
        """
        key = self._key(spec)
        if key not in self._cache:
            samples, res = simulate(*args, self.scheme, self.n_paths,
                                    q=spec.q, n_bins=self.n_bins)
            value, value_se = boundary(samples)
            if spec.model.sigma == 0.0:
                creep, creep_se = 0.0, 0.0
            else:
                creep, creep_se = mc.estimate_creeping(samples, spec.q)
            self._cache[key] = Ingredients(
                source="monte_carlo", boundary=value, boundary_se=value_se,
                creeping=creep, creeping_se=creep_se,
                edges=res.edges, density=res.density, density_se=res.stderr)
        return self._cache[key]

    def reflected(self, spec):
        return self._simulated(spec, mc.simulate_reflected,
                               (spec.model, spec.b, spec.a, spec.x),
                               lambda s: mc._mean_stderr(s.xi_discounted))

    def refracted(self, spec):
        return self._simulated(spec, mc.simulate_refracted,
                               (spec.model, spec.delta, spec.c, spec.a, spec.b, spec.x),
                               lambda s: mc.estimate_exit_transform(s, spec.q, mc.UP))


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
            resolvent=lambda z: self.resolvent_fn(spec, z))

    reflected = _build
    refracted = _build


def _integral_against_ingredients(Gfunc, ing, a, b, splits=()):
    """int_a^b G(z) * resolvent(z) dz plus its propagated MC uncertainty.

    ``Gfunc`` and a closed-form resolvent may be scalar-only; they are
    vectorised when they do not take arrays.
    """
    probe = a + (b - a) * np.array([0.25, 0.5, 0.75])
    Gfunc = array_function(Gfunc, probe)
    if ing.resolvent is not None:
        resolvent = array_function(ing.resolvent, probe)
        lo, hi = breaks(a, b, splits)
        val, err = quad_rows(lambda r, z: Gfunc(z) * resolvent(z), lo, hi,
                             rows=np.zeros(lo.size, dtype=np.intp), maps=SQRT,
                             panel_tol=1e-6)
        return float(val[0]), float(err[0])
    # 3-point Gauss-Legendre on every bin, cut at the splits inside it; G is
    # evaluated at every node in one call
    edges = ing.edges
    cuts = np.union1d(edges, [s for s in splits if edges[0] < s < edges[-1]])
    mid, half = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * np.diff(cuts)
    bins = np.searchsorted(edges, mid) - 1
    g = np.asarray(Gfunc((mid[:, None] + half[:, None] * _GL_NODES).ravel()), dtype=float)
    seg = half * (g.reshape(mid.size, _GL_NODES.size) * _GL_WEIGHTS).sum(axis=1)
    gint = np.bincount(bins, seg, edges.size - 1)
    return float(np.sum(gint * ing.density)), float(np.sum(np.abs(gint) * ing.density_se))


def _modified_overshoot(penalty, spec, ingredients, G, weight, splits, formula):
    """f~(x) - weight * boundary + int_a^b G u + creeping correction.

    ``ingredients`` is the provider method for ``spec``; ``weight`` is the
    penalty factor of the boundary ingredient.  The accuracy propagates the
    ingredients' uncertainty through each term.
    """
    if spec.x == spec.a:
        raise UnsupportedCaseError("boundary start x = a is not supported for "
                                   f"{formula} evaluation")
    _check_alignment(penalty, spec)
    ing = ingredients(spec)
    boundary = float(penalty.f_tilde(spec.x)) - ing.boundary * weight
    integral, int_err = _integral_against_ingredients(G, ing, spec.a, spec.b,
                                                      splits=splits)
    jump_at_a = penalty.f_at_a - penalty.right_limit_at_a
    creep = jump_at_a * ing.creeping
    accuracy = (abs(weight) * ing.boundary_se
                + int_err
                + abs(jump_at_a) * ing.creeping_se)
    return GerberShiuValue(
        value=boundary + integral + creep,
        boundary_term=boundary, integral_term=integral, creeping_term=creep,
        formula_used=formula, accuracy=accuracy,
        condition_note=f"ingredients: {ing.source}")


def reflected_overshoot(penalty, spec, provider):
    """Discounted penalty at first passage below a for the process reflected at b.

    Starting exactly at a is rejected: the boundary-start behaviour of the
    reflected identity is not settled, so no guess is made.
    """
    G = generator_closure(penalty, spec.model, spec.q)
    weight = float(penalty.f_tilde_left_deriv(spec.b))
    return _modified_overshoot(penalty, spec, provider.reflected, G, weight,
                               penalty.kinks, "reflected")


def refracted_overshoot(penalty, spec, provider):
    """Discounted penalty at first passage below a for the refracted process.

    The integrand gains the extra -delta 1{z > c} f~'(z) term; the integral
    panel is always split at z = c (indicator jump).
    """
    delta, c = spec.delta, spec.c
    plain = generator_closure(penalty, spec.model, spec.q)

    def G(z):
        z = np.asarray(z, dtype=float)
        out = plain(z)
        return np.where(z > c, out - delta * penalty.f_tilde_left_deriv(z), out)

    weight = float(penalty.f_tilde(spec.b))
    return _modified_overshoot(penalty, spec, provider.refracted, G, weight,
                               tuple(penalty.kinks) + (c,), "refracted")
