"""Laplace exponents, path classification and the right inverse Phi."""

import math

import numpy as np
import pytest

from levyfluct import (ModelError, RootFindingError, SpecError, brownian_motion,
                       laplace_exponent, laplace_exponent_derivative,
                       model_from_dict, path_variation, right_inverse_phi,
                       table_jumps)
from levyfluct.models import LevyTriplet, exponential_jumps, no_jumps, tempered_stable_jumps
from levyfluct.quadrature import quad


def cl_psi_exact(lam, premium=1.5, eta=1.0, rho=1.0):
    # analytic integral of the exponential jump density
    return premium * lam - eta * lam / (rho + lam)


def test_psi_zero_measure_is_polynomial():
    model = brownian_motion(drift=0.7, sigma=1.3)
    for lam in [0.0, 0.5, 2.0, 10.0]:
        assert laplace_exponent(model, lam) == pytest.approx(
            0.7 * lam + 0.5 * 1.3 ** 2 * lam ** 2, abs=1e-14)


def test_psi_at_zero_is_exactly_zero(catalog):
    for model in catalog.values():
        assert laplace_exponent(model, 0.0) == 0.0
        assert laplace_exponent(model, 0.0, method="quadrature") == 0.0


def test_cramer_lundberg_quadrature_matches_closed_form(catalog):
    model = catalog["cramer_lundberg"]
    for lam in np.linspace(0.01, 50.0, 23):
        exact = cl_psi_exact(lam)
        quad_val = laplace_exponent(model, lam, method="quadrature")
        assert abs(quad_val - exact) <= 1e-10 * max(1.0, abs(exact))


def test_quadrature_matches_analytic_catalog_wide(catalog):
    for name, model in catalog.items():
        for lam in np.linspace(0.1, 50.0, 9):
            ana = laplace_exponent(model, lam)
            num = laplace_exponent(model, lam, method="quadrature")
            assert abs(num - ana) <= 1e-10 * max(1.0, abs(ana)), name


def test_psi_convexity_on_grid(catalog):
    lam = np.linspace(0.0, 20.0, 81)
    for name, model in catalog.items():
        vals = np.array([laplace_exponent(model, l) for l in lam])
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9), name


def test_psi_over_lambda_growth_matches_variation(catalog):
    # bounded variation: psi/lam tends to the natural drift; otherwise grows
    lam = np.array([50.0, 100.0, 200.0, 400.0])
    for name, model in catalog.items():
        ratio = np.array([laplace_exponent(model, l) / l for l in lam])
        assert np.all(np.diff(ratio) > -1e-12), name
        if path_variation(model) == "bounded":
            assert ratio[-1] <= model.natural_drift + 1e-6
        else:
            assert ratio[-1] > 2.0 * ratio[0]


def test_psi_derivative_matches_finite_differences(catalog):
    for name, model in catalog.items():
        for lam in [0.3, 2.0, 9.0]:
            h = 1e-6 * max(1.0, lam)
            fd = (laplace_exponent(model, lam + h) - laplace_exponent(model, lam - h)) / (2 * h)
            assert laplace_exponent_derivative(model, lam) == pytest.approx(fd, rel=1e-6)


def test_path_variation_classification(catalog):
    assert path_variation(catalog["brownian"]) == "unbounded"
    assert path_variation(catalog["cramer_lundberg"]) == "bounded"
    assert path_variation(catalog["jump_diffusion"]) == "unbounded"
    assert path_variation(catalog["tempered_stable"]) == "unbounded"
    pure_drift = LevyTriplet(gamma=0.4, sigma=0.0, measure=no_jumps())
    assert path_variation(pure_drift) == "bounded"


def test_phi_brownian_quadratic_formula():
    mu, s = 0.25, 1.0
    model = brownian_motion(drift=mu, sigma=s)
    assert right_inverse_phi(model, 0.0) == 0.0
    for q in [0.05, 0.5, 3.0]:
        exact = (-mu + math.sqrt(mu * mu + 2 * q * s * s)) / (s * s)
        assert right_inverse_phi(model, q) == pytest.approx(exact, rel=1e-12)


def test_phi_defining_property_and_monotonicity(catalog):
    for name, model in catalog.items():
        prev = -1.0
        for q in [0.0, 0.01, 0.05, 0.2, 0.5, 2.0]:
            phi = right_inverse_phi(model, q)
            resid = laplace_exponent(model, phi) - q
            assert abs(resid) <= 1e-12 * max(1.0, q), name
            assert phi >= prev, name
            prev = phi


def test_phi_that_misses_its_residual_raises():
    # brentq's absolute xtol stops at 0, where psi'(0) = 1e-300; the Newton
    # polish stepped to 1, 0.5 and 0.25, and psi(0.25) - q read 0.031
    with pytest.raises(RootFindingError, match="misses"):
        right_inverse_phi(brownian_motion(1e-300, 1.0), 1e-300)


def test_phi_of_a_steep_exponent_is_kept():
    # psi' = 50 at Phi = 1e4, where one ulp of Phi moves psi by 9e-11: the
    # residual 5.8e-11 is psi's rounding, and Phi is the quadratic's root
    phi = right_inverse_phi(brownian_motion(-50.0, 0.1), 1.0)
    assert phi == pytest.approx((50.0 + math.sqrt(2500.0 + 2.0 * 0.01)) / 0.01, rel=1e-15)


def test_phi_nonzero_at_zero_for_downward_drifter(catalog):
    jd = catalog["jump_diffusion"]
    assert jd.mean_slope < 0
    assert right_inverse_phi(jd, 0.0) > 0


def test_subordinator_negative_is_rejected():
    measure = exponential_jumps(2.0, 1.0)
    # nonpositive natural drift with sigma = 0 means decreasing paths
    with pytest.raises(ModelError):
        LevyTriplet(gamma=-0.5 - measure.mean_small, sigma=0.0, measure=measure)
    # a Gaussian part makes the same parameters admissible
    LevyTriplet(gamma=-0.5 - measure.mean_small, sigma=0.5, measure=measure)
    # negative mean slope alone is fine (ruinous but not monotone)
    LevyTriplet(gamma=1.5 - measure.mean_small, sigma=0.0, measure=measure)


def test_negative_sigma_rejected():
    with pytest.raises(ModelError):
        LevyTriplet(gamma=0.1, sigma=-1.0, measure=no_jumps())


@pytest.mark.parametrize("build", [
    lambda: LevyTriplet(gamma=math.nan, sigma=1.0, measure=no_jumps()),
    lambda: LevyTriplet(gamma=0.3, sigma=math.inf, measure=no_jumps()),
    lambda: exponential_jumps(0.8, math.nan),
    lambda: tempered_stable_jumps(0.08, 1.5, math.nan),
    lambda: table_jumps([0.5, 1.0], [1.0, math.inf]),
], ids=["gamma", "sigma", "exponential-decay", "tempered-rho", "table-pi"])
def test_nonfinite_parameters_are_refused(build):
    with pytest.raises(ModelError, match="must be finite"):
        build()


def test_catalog_sanity(catalog):
    cl = catalog["cramer_lundberg"]
    # net profit condition: premium above expected claim flow
    assert cl.natural_drift == pytest.approx(1.5)
    assert cl.mean_slope > 0
    ts = catalog["tempered_stable"]
    assert ts.measure.mean_small == math.inf
    assert ts.measure.variation_part == "non_integrable_small_jumps"


def test_measure_tail_consistent_with_density(catalog):
    for name, model in catalog.items():
        meas = model.measure
        if meas.family == "none":
            continue
        for t in [0.3, 1.0, 2.5]:
            by_quad, _ = quad(lambda u: float(meas.density(u)), t, np.inf)
            assert float(meas.tail(t)) == pytest.approx(by_quad, rel=1e-8)


def test_tail_integration_by_parts(catalog):
    # int_1^inf theta pi(theta) dtheta == tail(1) + int_1^inf tail(theta) dtheta
    for name, model in catalog.items():
        meas = model.measure
        if meas.family == "none":
            continue
        direct, _ = quad(lambda u: u * float(meas.density(u)), 1.0, np.inf)
        parts, _ = quad(lambda u: float(meas.tail(u)), 1.0, np.inf)
        assert direct == pytest.approx(float(meas.tail(1.0)) + parts, rel=1e-8)
        assert meas.mean_above_one == pytest.approx(direct, rel=1e-8)


def test_table_measure_roundtrip():
    theta = np.geomspace(0.05, 8.0, 40)
    dens = 0.7 * np.exp(-1.2 * theta)
    meas = table_jumps(theta, dens)
    assert meas.family == "table"
    assert meas.activity == "finite_activity"
    mid = float(meas.tail(1.0))
    by_quad, _ = quad(lambda u: float(meas.density(u)), 1.0, theta[-1])
    assert mid == pytest.approx(by_quad, rel=1e-6)
    model = LevyTriplet(gamma=1.0, sigma=0.0, measure=meas)
    val = laplace_exponent(model, 2.0, method="quadrature")
    assert math.isfinite(val)


def test_table_measure_validation():
    with pytest.raises(ModelError):
        table_jumps([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ModelError):
        table_jumps([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ModelError):
        table_jumps([0.5, 1.0], [-1.0, 1.0])


def test_model_from_dict_families():
    spec = {"gamma": 0.25, "sigma": 1.0, "measure": {"family": "none"}}
    model = model_from_dict(spec)
    assert model.sigma == 1.0
    spec = {"gamma": 0.0, "sigma": 0.0,
            "measure": {"family": "exponential", "intensity": 1.0, "decay": 1.0}}
    model = model_from_dict(spec)
    assert model.measure.family == "exponential"
    spec = {"gamma": 0.35, "sigma": 0.0,
            "measure": {"family": "tempered_stable", "c": 0.08, "alpha": 1.5, "rho": 1.0}}
    assert model_from_dict(spec).measure.family == "tempered_stable"


def test_model_from_dict_errors():
    with pytest.raises(SpecError):
        model_from_dict({"gamma": 0.1, "sigma": 1.0})
    with pytest.raises(SpecError):
        model_from_dict({"gamma": 0.1, "sigma": 1.0, "measure": {"family": "nope"}})
    with pytest.raises(SpecError):
        model_from_dict({"gamma": 0.1, "sigma": 1.0,
                         "measure": {"family": "exponential", "intensity": 1.0}})
    with pytest.raises(SpecError):
        # negative of a subordinator through the spec path
        model_from_dict({"gamma": -2.0, "sigma": 0.0,
                         "measure": {"family": "exponential", "intensity": 1.0,
                                     "decay": 1.0}})


from levyfluct.models import tempered_stable_jumps


def test_table_with_support_past_100():
    meas = table_jumps([1.0, 200.0], [1.0, 1.0])
    assert meas.tail(100.0) == pytest.approx(100.0, rel=1e-12)
    assert meas.tail(200.0) == 0.0
    model = LevyTriplet(gamma=0.5, sigma=0.0, measure=meas)
    assert math.isfinite(right_inverse_phi(model, 0.05))


def test_tail_that_does_not_vanish_is_rejected():
    from dataclasses import replace

    meas = exponential_jumps(1.0, 1.0)
    with pytest.raises(ModelError, match="vanish"):
        replace(meas, tail=lambda t: 1e-3 + np.exp(-np.asarray(t, dtype=float)))


@pytest.mark.parametrize("measure", [
    exponential_jumps(1.0, 1.0),
    tempered_stable_jumps(0.08, 1.5, 1.0),
    table_jumps([0.05, 0.5, 1.0, 3.0, 8.0], [0.7, 0.4, 0.25, 0.05, 0.001]),
], ids=["exponential", "tempered_stable", "table"])
def test_mass_between_is_zero_where_hi_is_not_above_lo(measure):
    assert measure.mass_between(1.0, 0.5) == 0.0
    assert measure.mass_between(0.7, 0.7) == 0.0
    lo = np.array([0.2, 1.0, 0.5, 0.7, 2.0])
    hi = np.array([1.0, 0.5, 3.0, 0.7, 1.5])
    got = measure.mass_between(lo, hi)
    assert got.shape == lo.shape
    assert np.array_equal(got == 0.0, hi <= lo)
    expected = [measure.mass_between(u, v) for u, v in zip(lo, hi)]
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# the Brent root finder against scipy.optimize.brentq
# ---------------------------------------------------------------------------

from levyfluct.errors import RootFindingError
from levyfluct.models import brentq, canonical_models, laplace_exponent


def brent_pairs():
    """(f, lo, hi) brackets: psi - q on every fixture, and random smooth functions."""
    fixtures = dict(canonical_models(),
                    pure_drift=LevyTriplet(gamma=0.4, sigma=0.0, measure=no_jumps()))
    for model in fixtures.values():
        psi = lambda lam, m=model: laplace_exponent(m, lam)
        for q in np.concatenate([[0.0, 0.05, 0.5], np.geomspace(1e-6, 100.0, 24)]):
            for lo, hi in ((0.0, 1.0), (0.0, 64.0), (0.0, 1024.0), (1e-3, 50.0)):
                if (psi(lo) - q) * (psi(hi) - q) < 0:
                    yield (lambda lam, p=psi, q=q: p(lam) - q), lo, hi
    rng = np.random.default_rng(7)
    for _ in range(120):
        c = rng.normal(size=4)
        lo, hi = sorted(rng.uniform(-5.0, 5.0, 2))
        f = lambda x, c=c: c[0] + c[1] * x + c[2] * x ** 3 + c[3] * math.sin(5.0 * x)
        if f(lo) * f(hi) < 0:
            yield f, lo, hi


@pytest.mark.parametrize("options", [{}, {"rtol": 1e-14, "maxiter": 200},
                                     {"xtol": 1e-15, "rtol": 1e-13}])
def test_brentq_is_bit_equal_to_scipy(options):
    from scipy import optimize

    count = 0
    for f, lo, hi in brent_pairs():
        got, want = brentq(f, lo, hi, **options), optimize.brentq(f, lo, hi, **options)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (lo, hi)
        count += 1
    assert count > 300


def test_brentq_errors():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
    with pytest.raises(RootFindingError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RootFindingError, match="converge"):
        brentq(lambda x: math.sin(5.0 * x) + 0.3 * x, -3.0, 2.0, xtol=1e-15, maxiter=3)
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0 and brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
