"""Reflected/refracted overshoot identities and ingredient providers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levyfluct import (ClosedFormProvider, ExitProblem, ModelError,
                       MonteCarloProvider, RefractedSpec, ReflectedSpec,
                       ScaleFunction, SimScheme, UnsupportedCaseError,
                       brownian_motion, extend_penalty,
                       overshoot_functional_general, reflected_overshoot,
                       refracted_overshoot, simulate_reflected, simulate_refracted)
from levyfluct.models import LevyTriplet, exponential_jumps, no_jumps
from levyfluct.montecarlo import DOWN

ONE = lambda y: 1.0


@pytest.fixture(scope="module")
def bm_down():
    # downward drift so that reflected ruin happens quickly
    return brownian_motion(drift=-0.1, sigma=1.0)


@pytest.fixture(scope="module")
def reflected_setting(bm_down):
    a, b, q, x0 = 0.0, 1.5, 0.1, 0.75
    spec = ReflectedSpec(model=bm_down, b=b, a=a, q=q, x=x0)
    provider = MonteCarloProvider(scheme=SimScheme(dt=1e-3, seed=31),
                                  n_paths=40_000, n_bins=150)
    return spec, provider


def closed_form_reflected(sf):
    """Scale-function formulas for the reflected ingredients (test fixture).

    These reproduce the literature expressions; the package itself ships no
    such formulas, it only validates a configured provider against MC.
    """
    def boundary_fn(spec):
        return float(sf.w(spec.x - spec.a) / sf.w_prime(spec.b - spec.a))

    def resolvent_fn(spec, z):
        return float(sf.w(spec.x - spec.a) * sf.w_prime(spec.b - z)
                     / sf.w_prime(spec.b - spec.a) - sf.w(spec.x - z))

    def creeping_fn(spec):
        return float(0.5 * spec.model.sigma ** 2 * (
            sf.w_prime(spec.x - spec.a)
            - sf.w(spec.x - spec.a) * sf.w_second(spec.b - spec.a)
            / sf.w_prime(spec.b - spec.a)))

    return ClosedFormProvider(boundary_fn, resolvent_fn, creeping_fn)


def direct_reflected_mc(model, spec, n_paths, seed, f=None, horizon=None):
    s = simulate_reflected(model, spec.b, spec.a, spec.x,
                           SimScheme(dt=1e-3, seed=seed, horizon=horizon),
                           n_paths, q=spec.q)
    vals = np.zeros(s.n_paths)
    down = s.sides == DOWN
    if f is None:
        vals[down] = np.exp(-spec.q * s.times[down])
    else:
        vals[down] = np.exp(-spec.q * s.times[down]) * np.array(
            [float(f(p)) for p in s.positions[down]])
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(s.n_paths))


def test_reflected_identity_matches_direct_mc(reflected_setting, bm_down):
    spec, provider = reflected_setting
    p1 = extend_penalty(ONE, spec.a, spec.b, "constant_one")
    val = reflected_overshoot(p1, spec, provider)
    direct, se = direct_reflected_mc(bm_down, spec, 40_000, seed=77)
    comb = math.hypot(se, val.accuracy)
    assert abs(val.value - direct) < 3.0 * comb
    assert val.formula_used == "reflected"


def test_reflected_closed_form_provider_agrees_with_mc(reflected_setting, bm_down):
    spec, provider = reflected_setting
    sf = ScaleFunction(bm_down, spec.q, x_max=3.0)
    cf = closed_form_reflected(sf)
    ing_cf = cf.reflected(spec)
    ing_mc = provider.reflected(spec)
    assert abs(ing_cf.boundary - ing_mc.boundary) < 3.0 * ing_mc.boundary_se
    assert abs(ing_cf.creeping - ing_mc.creeping) < 3.5 * ing_mc.creeping_se
    # occupation integrals agree up to the O(dt * duration) sampling bias
    centers = 0.5 * (ing_mc.edges[:-1] + ing_mc.edges[1:])
    widths = np.diff(ing_mc.edges)
    for k in (0, 1):
        m_mc = float(np.sum(centers ** k * ing_mc.density * widths))
        m_cf = float(np.sum(centers ** k * np.array([ing_cf.resolvent(z) for z in centers])
                            * widths))
        se = math.sqrt(float(np.sum((centers ** k * ing_mc.density_se * widths) ** 2)))
        assert abs(m_mc - m_cf) < 3.0 * se + 0.03
    # identity values from both providers agree within combined error
    p1 = extend_penalty(ONE, spec.a, spec.b, "constant_one")
    v_cf = reflected_overshoot(p1, spec, cf)
    v_mc = reflected_overshoot(p1, spec, provider)
    assert abs(v_cf.value - v_mc.value) < 3.0 * (v_mc.accuracy + 1e-4)


def test_reflected_creeping_ingredient_zero_without_gaussian(catalog):
    model = catalog["cramer_lundberg"]
    spec = ReflectedSpec(model=model, b=2.0, a=0.0, q=0.1, x=1.0)
    provider = MonteCarloProvider(scheme=SimScheme(dt=2e-3, seed=5),
                                  n_paths=4000, n_bins=60)
    ing = provider.reflected(spec)
    assert ing.creeping == 0.0 and ing.creeping_se == 0.0
    fe = lambda y: math.exp(y)
    p = extend_penalty(fe, 0.0, 2.0, "constant_one")   # discontinuous at a
    val = reflected_overshoot(p, spec, provider)
    assert val.creeping_term == 0.0


def test_reflected_q_zero_certain_ruin(bm_down):
    # q = 0, f = 1, constant extension: the identity collapses to 1 exactly
    spec = ReflectedSpec(model=bm_down, b=1.5, a=0.0, q=0.0, x=0.75)
    provider = MonteCarloProvider(scheme=SimScheme(dt=1e-3, seed=32, horizon=300.0),
                                  n_paths=4000, n_bins=60)
    p1 = extend_penalty(ONE, 0.0, 1.5, "constant_one")
    val = reflected_overshoot(p1, spec, provider)
    assert val.value == pytest.approx(1.0, abs=1e-9)
    direct, se = direct_reflected_mc(bm_down, spec, 4000, seed=33, horizon=300.0)
    assert direct == pytest.approx(1.0, abs=1e-6)


def test_reflected_extension_independence_within_mc_tolerance(reflected_setting):
    spec, provider = reflected_setting
    fe = lambda y: math.exp(y)
    vals = []
    for rec in ["constant_one", "affine_at_a"]:
        p = extend_penalty(fe, spec.a, spec.b, rec)
        vals.append(reflected_overshoot(p, spec, provider))
    # shared noisy ingredients: agreement is limited by the histogram
    # resolution, well inside the MC accuracy estimates
    tol = 3.0 * (vals[0].accuracy + vals[1].accuracy) + 2e-3
    assert abs(vals[0].value - vals[1].value) < tol


def test_reflected_boundary_start_rejected(reflected_setting):
    spec, provider = reflected_setting
    p1 = extend_penalty(ONE, spec.a, spec.b, "constant_one")
    bad = ReflectedSpec(model=spec.model, b=spec.b, a=spec.a, q=spec.q, x=spec.a)
    with pytest.raises(UnsupportedCaseError):
        reflected_overshoot(p1, bad, provider)


def test_refracted_identity_matches_direct_mc(catalog):
    model = catalog["cramer_lundberg"]
    a, b, q, x0, delta, c = 0.0, 2.0, 0.05, 1.0, 0.3, 1.0
    spec = RefractedSpec(model=model, delta=delta, c=c, a=a, b=b, q=q, x=x0)
    provider = MonteCarloProvider(scheme=SimScheme(dt=1e-3, seed=41),
                                  n_paths=40_000, n_bins=150)
    p1 = extend_penalty(ONE, a, b, "constant_one")
    val = refracted_overshoot(p1, spec, provider)
    s = simulate_refracted(model, delta, c, a, b, x0,
                           SimScheme(dt=1e-3, seed=42), 40_000, q=q)
    vals = np.where(s.sides == DOWN, np.exp(-q * s.times), 0.0)
    direct = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(s.n_paths))
    assert abs(val.value - direct) < 3.0 * math.hypot(se, val.accuracy)


def test_refracted_delta_zero_matches_plain_identity(catalog, scale_cache):
    model = catalog["jump_diffusion"]
    a, b, q, x0 = 0.0, 2.0, 0.05, 1.0
    spec = RefractedSpec(model=model, delta=0.0, c=1.0, a=a, b=b, q=q, x=x0)
    provider = MonteCarloProvider(scheme=SimScheme(dt=1e-3, seed=43),
                                  n_paths=40_000, n_bins=150)
    fe = lambda y: math.exp(y)
    p = extend_penalty(fe, a, b, "constant_one")
    val = refracted_overshoot(p, spec, provider)
    sf = scale_cache.get(model, q, x_max=3.0)
    plain = overshoot_functional_general(p, sf, ExitProblem(a, b, q, x0))
    assert abs(val.value - plain.value) < 3.0 * (val.accuracy + 1e-4)


def test_refracted_spec_validation(catalog):
    model = catalog["cramer_lundberg"]
    with pytest.raises(ModelError):
        RefractedSpec(model=model, delta=2.0, c=1.0, a=0.0, b=2.0, q=0.1, x=1.0)
    with pytest.raises(ModelError):
        RefractedSpec(model=model, delta=0.1, c=2.5, a=0.0, b=2.0, q=0.1, x=1.0)
    with pytest.raises(ModelError):
        RefractedSpec(model=model, delta=-0.1, c=1.0, a=0.0, b=2.0, q=0.1, x=1.0)


def test_refracted_integrand_split_convergence(catalog):
    # the forced panel break at z = c: with the break, coarse and refined
    # evaluations agree; the integrand has an indicator jump there
    from levyfluct.reflected_refracted import Ingredients, _integral_against_ingredients

    delta, c, a, b, q = 0.3, 0.985, 0.0, 2.0, 0.05

    def G(z):
        # unit-slope extension: the refraction term jumps by delta at c
        out = -q
        if z > c:
            out -= delta
        return out

    smooth = lambda z: 1.0 + 0.3 * math.sin(2.0 * z)      # stand-in density
    n_bins = 40
    edges = np.linspace(a, b, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ing = Ingredients(source="synthetic", boundary=0.0, boundary_se=0.0,
                      creeping=0.0, creeping_se=0.0, edges=edges,
                      density=np.array([smooth(z) for z in centers]),
                      density_se=np.zeros(n_bins))
    # exact reference for the piecewise-constant density and step integrand
    widths = np.diff(edges)
    exact = 0.0
    for k in range(n_bins):
        above = max(0.0, min(edges[k + 1], b) - max(edges[k], c))
        exact += ing.density[k] * (-q * widths[k] - delta * above)
    v_split, _ = _integral_against_ingredients(G, ing, a, b, splits=(c,))
    assert v_split == pytest.approx(exact, abs=1e-12)
    # without the break the step is only resolved to the panel width; with
    # the panel count doubled the result lands within that tolerance
    v_fine, _ = _integral_against_ingredients(G, ing, a, b, splits=tuple(centers))
    half_panel = 0.5 * float(widths[0])
    assert abs(v_fine - v_split) < delta * half_panel * float(np.max(ing.density))


def test_refracted_boundary_start_rejected(catalog):
    model = catalog["cramer_lundberg"]
    spec = RefractedSpec(model=model, delta=0.3, c=1.0, a=0.0, b=2.0, q=0.1, x=0.0)
    provider = MonteCarloProvider(scheme=SimScheme(dt=2e-3, seed=2), n_paths=100)
    p1 = extend_penalty(ONE, 0.0, 2.0, "constant_one")
    with pytest.raises(UnsupportedCaseError):
        refracted_overshoot(p1, spec, provider)


def test_provider_cache_keys_on_model_parameters():
    # equal parameters share one entry even as distinct objects; a change in
    # any single parameter, or in the jump family, gets its own entry
    provider = MonteCarloProvider(scheme=SimScheme(dt=4e-3, seed=9), n_paths=200,
                                  n_bins=20)

    def spec(gamma=0.3, sigma=0.6, measure=None):
        measure = measure if measure is not None else exponential_jumps(0.8, 1.5)
        model = LevyTriplet(gamma=gamma, sigma=sigma, measure=measure)
        return ReflectedSpec(model=model, b=2.0, a=0.0, q=0.1, x=1.0)

    first = provider.reflected(spec())
    assert provider.reflected(spec()) is first
    assert len(provider._cache) == 1
    for kw in (dict(gamma=0.31), dict(sigma=0.61),
               dict(measure=exponential_jumps(0.81, 1.5)),
               dict(measure=exponential_jumps(0.8, 1.51)), dict(measure=no_jumps())):
        assert provider.reflected(spec(**kw)) is not first
    assert len(provider._cache) == 6
    # a custom measure keys on its object (the simulator has no sampler for one, so
    # the key is read directly): equal gamma and sigma never share an entry
    one, other = (replace(exponential_jumps(0.8, 1.5), family="custom", params={})
                  for _ in range(2))
    assert provider._key(spec(measure=one)) == provider._key(spec(measure=one))
    assert provider._key(spec(measure=one)) != provider._key(spec(measure=other))


def test_refracted_spec_rejects_negative_rate(catalog):
    with pytest.raises(ModelError):
        RefractedSpec(model=catalog["cramer_lundberg"], delta=0.1, c=1.0,
                      a=0.0, b=2.0, q=-0.1, x=1.0)
