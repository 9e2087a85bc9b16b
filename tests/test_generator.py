"""Penalty extensions, membership checks, and the compensated generator."""

import math

import numpy as np
import pytest

from levyfluct import (ExtensionRecipe, ModelError, apply_generator,
                       check_membership, extend_penalty, laplace_exponent)
from levyfluct.quadrature import quad

ONE = lambda y: 1.0
A, B = 0.0, 2.0


def test_constant_is_harmonic(catalog):
    p = extend_penalty(ONE, A, B, "constant_one")
    for q in [0.0, 0.05, 0.7]:
        for name, model in catalog.items():
            got = apply_generator(p, model, q, 1.0)
            assert got == pytest.approx(-q, abs=5e-11), name


def test_exponential_eigenfunction(catalog):
    lam0 = 0.7
    f = lambda y: math.exp(lam0 * y)
    recipe = ExtensionRecipe(kind="custom",
                             f_tilde=lambda y: math.exp(lam0 * y),
                             f_tilde_deriv=lambda y: lam0 * math.exp(lam0 * y),
                             f_tilde_second=lambda y: lam0 ** 2 * math.exp(lam0 * y))
    p = extend_penalty(f, A, B, recipe)
    for name, model in catalog.items():
        for x in [0.4, 1.2, 1.9]:
            want = (laplace_exponent(model, lam0) - 0.05) * math.exp(lam0 * x)
            got = apply_generator(p, model, 0.05, x)
            assert got == pytest.approx(want, rel=5e-9), name


def test_scale_function_is_harmonic_bounded_variation(catalog, scale_cache, rng):
    # (A - q) W^(q) = 0 for a.e. x > 0; checked at random non-grid points
    model = catalog["cramer_lundberg"]
    sf = scale_cache.get(model, 0.05, x_max=4.0)
    p = extend_penalty(sf.w, 0.5, 3.0, ExtensionRecipe(kind="scale_function", scale=sf),
                       f_kinks=(0.0,))
    xs = 0.5 + 2.5 * rng.random(20)
    for x in xs:
        assert abs(apply_generator(p, model, 0.05, float(x))) < 1e-6


def test_scale_function_is_harmonic_gaussian_case(catalog, scale_cache):
    # with sigma > 0 the identity holds at every x > 0
    model = catalog["jump_diffusion"]
    sf = scale_cache.get(model, 0.05, x_max=4.0)
    p = extend_penalty(sf.w, 0.5, 3.0, ExtensionRecipe(kind="scale_function", scale=sf),
                       f_kinks=(0.0,))
    for x in np.linspace(0.55, 2.95, 9):
        assert abs(apply_generator(p, model, 0.05, float(x))) < 1e-9


def test_generator_linearity(catalog, rng):
    model = catalog["jump_diffusion"]
    for _ in range(3):
        c1, c2 = rng.normal(size=2)
        l1, l2 = 0.4, 0.9

        def make(lam, scl=1.0):
            return ExtensionRecipe(
                kind="custom",
                f_tilde=lambda y: scl * math.exp(lam * y),
                f_tilde_deriv=lambda y: scl * lam * math.exp(lam * y),
                f_tilde_second=lambda y: scl * lam * lam * math.exp(lam * y))

        p1 = extend_penalty(lambda y: math.exp(l1 * y), A, B, make(l1))
        p2 = extend_penalty(lambda y: math.exp(l2 * y), A, B, make(l2))
        comb_f = lambda y: c1 * math.exp(l1 * y) + c2 * math.exp(l2 * y)
        comb = extend_penalty(comb_f, A, B, ExtensionRecipe(
            kind="custom",
            f_tilde=comb_f,
            f_tilde_deriv=lambda y: c1 * l1 * math.exp(l1 * y) + c2 * l2 * math.exp(l2 * y),
            f_tilde_second=lambda y: c1 * l1 ** 2 * math.exp(l1 * y) + c2 * l2 ** 2 * math.exp(l2 * y)))
        x = 1.1
        lhs = apply_generator(comb, model, 0.05, x)
        rhs = (c1 * apply_generator(p1, model, 0.05, x)
               + c2 * apply_generator(p2, model, 0.05, x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_affine_compensation_consistency(catalog):
    # h(y) = y: A h(x) = gamma - int_1^inf th Pi(dth); cross-check the tail
    # integral through two integration orders
    recipe = ExtensionRecipe(kind="custom", f_tilde=lambda y: y,
                             f_tilde_deriv=lambda y: 1.0,
                             f_tilde_second=lambda y: 0.0)
    for name, model in catalog.items():
        p = extend_penalty(lambda y: y, A, B, recipe)
        got = apply_generator(p, model, 0.0, 1.0)
        meas = model.measure
        if meas.family == "none":
            tail_mass = 0.0
        else:
            direct, _ = quad(lambda t: t * float(meas.density(t)), 1.0, np.inf)
            parts, _ = quad(lambda t: float(meas.tail(t)), 1.0, np.inf)
            by_parts = float(meas.tail(1.0)) + parts
            assert direct == pytest.approx(by_parts, rel=1e-8), name
            tail_mass = direct
        assert got == pytest.approx(model.gamma - tail_mass, rel=2e-9, abs=1e-10), name


def test_membership_constant_extension_passes_everywhere(catalog):
    p = extend_penalty(ONE, A, B, "constant_one")
    for name, model in catalog.items():
        rep = check_membership(p, model)
        assert rep.membership_ok, name
        assert rep.corollary_condition is not None, name
        assert rep.lemma_integrability, name


def test_membership_zero_extension_tempered_stable_requires_general_form(catalog):
    p = extend_penalty(ONE, A, B, "zero")
    rep = check_membership(p, catalog["tempered_stable"])
    assert rep.membership_ok                    # still a valid extension
    assert rep.corollary_condition is None      # but no simplification applies
    assert not rep.lemma_integrability


def test_membership_scale_extension(catalog, scale_cache):
    for name in ["cramer_lundberg", "jump_diffusion"]:
        model = catalog[name]
        sf = scale_cache.get(model, 0.05, x_max=4.0)
        p = extend_penalty(sf.w, 0.5, 2.5,
                           ExtensionRecipe(kind="scale_function", scale=sf),
                           f_kinks=(0.0,))
        rep = check_membership(p, model)
        assert rep.membership_ok, name
        assert not rep.membership_unverified
    ts = catalog["tempered_stable"]
    sf = scale_cache.get(ts, 0.05, x_max=4.0)
    p = extend_penalty(sf.w, 0.5, 2.5,
                       ExtensionRecipe(kind="scale_function", scale=sf),
                       f_kinks=(0.0,))
    rep = check_membership(p, ts)
    assert rep.membership_unverified


def test_membership_corollary_conditions(catalog):
    # continuous extension: condition 2 with integrable small jumps + sigma > 0
    p_cont = extend_penalty(ONE, A, B, "constant_one")
    assert check_membership(p_cont, catalog["jump_diffusion"]).corollary_condition == 2
    # sigma = 0 and integrable: condition 1 regardless of continuity
    p_zero = extend_penalty(ONE, A, B, "zero")
    assert check_membership(p_zero, catalog["cramer_lundberg"]).corollary_condition == 1
    # discontinuity at a with sigma > 0: no condition (the general form handles it)
    assert check_membership(p_zero, catalog["brownian"]).corollary_condition is None
    # smooth junction with non-integrable small jumps: condition 3
    gap = lambda y: max(0.0, A - y)
    p_gap_zero = extend_penalty(gap, A, B, "zero")
    assert check_membership(p_gap_zero, catalog["tempered_stable"]).corollary_condition == 3


def test_lemma_integrability_numeric(catalog):
    # when the lemma applies, int_a^b |A h| dx is finite and refinement-stable
    lam0 = 0.5
    recipe = ExtensionRecipe(kind="custom",
                             f_tilde=lambda y: math.exp(lam0 * y),
                             f_tilde_deriv=lambda y: lam0 * math.exp(lam0 * y),
                             f_tilde_second=lambda y: lam0 ** 2 * math.exp(lam0 * y))
    p = extend_penalty(lambda y: math.exp(lam0 * y), A, B, recipe)
    model = catalog["jump_diffusion"]
    assert check_membership(p, model).lemma_integrability

    def total(n):
        zs = np.linspace(A, B, n + 1)
        mids = 0.5 * (zs[:-1] + zs[1:])
        vals = [abs(apply_generator(p, model, 0.0, float(z))) for z in mids]
        return float(np.mean(vals) * (B - A))

    t1, t2 = total(64), total(128)
    assert math.isfinite(t2)
    assert abs(t2 - t1) < 0.01 * abs(t1)


def test_extension_recipe_shapes():
    f = lambda y: math.exp(y)
    p_aff = extend_penalty(f, 0.5, 2.0, "affine_at_a")
    slope = math.exp(0.5)
    assert p_aff.f_tilde(1.0) == pytest.approx(slope * 1.0 + math.exp(0.5), rel=1e-6)
    assert p_aff.right_limit_at_a == pytest.approx(slope * 0.5 + math.exp(0.5), rel=1e-6)
    assert not p_aff.continuous_at_a
    p_zero = extend_penalty(f, 0.0, 2.0, "zero")
    assert p_zero.f_tilde(1.3) == 0.0
    assert not p_zero.continuous_at_a
    assert p_zero.kinks == (0.0,)
    gap = lambda y: max(0.0, 0.0 - y)
    p_gap = extend_penalty(gap, 0.0, 2.0, "zero")
    assert p_gap.continuous_at_a
    assert p_gap.smooth_junction


def test_generator_domain_errors(catalog):
    p = extend_penalty(ONE, A, B, "constant_one")
    model = catalog["brownian"]
    with pytest.raises(ModelError):
        apply_generator(p, model, 0.05, A)
    with pytest.raises(ModelError):
        apply_generator(p, model, 0.05, B + 0.1)


def test_custom_recipe_requires_f_tilde():
    with pytest.raises(ModelError):
        extend_penalty(ONE, A, B, ExtensionRecipe(kind="custom"))
    with pytest.raises(ModelError):
        extend_penalty(ONE, A, B, "no_such_kind")


# ---------------------------------------------------------------------------
# the array path
# ---------------------------------------------------------------------------

from levyfluct import HypothesisViolationError  # noqa: E402

LAM = 0.7
EXP_RECIPE = ExtensionRecipe(kind="custom",
                             f_tilde=lambda y: np.exp(LAM * y),
                             f_tilde_deriv=lambda y: LAM * np.exp(LAM * y),
                             f_tilde_second=lambda y: LAM ** 2 * np.exp(LAM * y))


def _extensions(scale_cache, model):
    sf = scale_cache.get(model, 0.05, x_max=4.0)
    return {"zero": "zero", "constant_one": "constant_one", "affine_at_a": "affine_at_a",
            "scale_function": ExtensionRecipe(kind="scale_function", scale=sf),
            "custom": EXP_RECIPE}


@pytest.mark.parametrize("name", ["brownian", "cramer_lundberg", "jump_diffusion",
                                  "tempered_stable"])
def test_array_generator_matches_scalar_calls(catalog, scale_cache, rng, name):
    model = catalog[name]
    f = lambda y: 1.0 + 0.5 * np.expm1(np.asarray(y, dtype=float))
    xs = np.sort(A + (B - A) * rng.random(200))
    for kind, recipe in _extensions(scale_cache, model).items():
        p = extend_penalty(f, A, B, recipe)
        arr = apply_generator(p, model, 0.05, xs)
        one = np.array([apply_generator(p, model, 0.05, float(x)) for x in xs])
        assert isinstance(apply_generator(p, model, 0.05, float(xs[0])), float)
        # the closed-form W of a Gaussian model makes (A - q)W a cancellation
        # of O(1) terms, so the tolerance is relative to 1 at least
        np.testing.assert_allclose(arr, one, rtol=1e-14,
                                   atol=1e-14 * max(1.0, float(np.max(np.abs(one)))),
                                   err_msg=kind)


def test_tempered_eigenfunction_near_both_ends(catalog):
    model = catalog["tempered_stable"]
    p = extend_penalty(lambda y: np.exp(LAM * y), A, B, EXP_RECIPE)
    xs = np.array([A + 1e-6, A + 5e-7, B - 1e-6, B - 5e-7])
    want = (laplace_exponent(model, LAM) - 0.05) * np.exp(LAM * xs)
    np.testing.assert_allclose(apply_generator(p, model, 0.05, xs), want, rtol=5e-9)


def test_scalar_only_custom_recipe_is_vectorised(catalog):
    # the same quadratic written for floats only (float() rejects arrays) and
    # for numpy: the same IEEE operations, so the same values
    def poly(y, c0, c1, c2):
        return c0 + c1 * y + c2 * y * y

    scalar = ExtensionRecipe(kind="custom",
                             f_tilde=lambda y: poly(float(y), 1.0, 0.5, 0.25),
                             f_tilde_deriv=lambda y: poly(float(y), 0.5, 0.5, 0.0),
                             f_tilde_second=lambda y: poly(float(y), 0.5, 0.0, 0.0))
    numpy = ExtensionRecipe(kind="custom",
                            f_tilde=lambda y: poly(np.asarray(y), 1.0, 0.5, 0.25),
                            f_tilde_deriv=lambda y: poly(np.asarray(y), 0.5, 0.5, 0.0),
                            f_tilde_second=lambda y: poly(np.asarray(y), 0.5, 0.0, 0.0))
    xs = np.linspace(0.1, 1.9, 7)
    for name, model in catalog.items():
        p_scalar = extend_penalty(lambda y: math.exp(float(y)), A, B, scalar)
        p_numpy = extend_penalty(np.exp, A, B, numpy)
        np.testing.assert_allclose(apply_generator(p_scalar, model, 0.05, xs),
                                   apply_generator(p_numpy, model, 0.05, xs),
                                   rtol=1e-15, atol=1e-15, err_msg=name)


def test_array_generator_domain_errors(catalog):
    p = extend_penalty(ONE, A, B, "constant_one")
    for bad in ([0.5, B + 0.1], [A, 1.0], [1.0, B]):
        with pytest.raises(ModelError):
            apply_generator(p, catalog["brownian"], 0.05, np.array(bad))


def test_h_takes_right_limit_at_a_inside_arrays():
    p = extend_penalty(lambda y: math.exp(y), A, B, "affine_at_a")
    ys = np.array([A - 1.0, A, A + 0.5])
    out = p.h(ys)
    assert out[1] == p.right_limit_at_a
    assert out[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert out[2] == pytest.approx(p.f_tilde(A + 0.5), rel=1e-15)
    assert p.h(A) == p.right_limit_at_a
    np.testing.assert_array_equal(p.compensated_diff(1.0, np.array([0.1, 0.2])), 0.0)


def test_divergent_jump_tail_raises_hypothesis_violation(catalog):
    # f(y) = exp(-2y) grows faster below a than the exponential jumps decay
    p = extend_penalty(lambda y: np.exp(-2.0 * y), A, B, "constant_one")
    with np.errstate(over="ignore"), pytest.raises(HypothesisViolationError, match="z = 1"):
        apply_generator(p, catalog["jump_diffusion"], 0.05, 1.0)
    with np.errstate(over="ignore"), pytest.raises(HypothesisViolationError, match="z = 0.5"):
        apply_generator(p, catalog["jump_diffusion"], 0.05, np.array([0.5, 1.0]))
