"""Scale functions: closed forms, Laplace inversion, transforms, Z."""

import math

import numpy as np
import pytest

from levyfluct import (ScaleFunction, invert_laplace,
                       laplace_exponent, right_inverse_phi, transform_roundtrip)
from levyfluct.quadrature import quad


def bm_sinh_candidate(x, q, mu=0.25, s=1.0):
    delta = math.sqrt(mu * mu + 2 * q * s * s)
    return (2.0 / delta) * np.exp(-mu * x / s ** 2) * np.sinh(x * delta / s ** 2)


def cl_partial_fraction_candidate(x, q, premium=1.5, eta=1.0, rho=1.0):
    # two-exponential form from partial fractions of 1/(psi - q)
    coeffs = [premium, premium * rho - eta - q, -q * rho]
    r1, r2 = np.roots(coeffs)
    a1 = (rho + r1) / (2 * premium * r1 + (premium * rho - eta - q))
    a2 = (rho + r2) / (2 * premium * r2 + (premium * rho - eta - q))
    return np.real(a1 * np.exp(r1 * np.asarray(x)) + a2 * np.exp(r2 * np.asarray(x)))


def laplace_of_candidate(candidate, lam, x_hi=60.0):
    val, _ = quad(lambda u: math.exp(-lam * u) * float(candidate(u)), 0.0, x_hi,
                  epsabs=1e-13, epsrel=1e-11, limit=400)
    return val


def test_bm_sinh_candidate_roundtrip_oracle(catalog):
    # verify the closed-form candidate itself before using it as an oracle
    model = catalog["brownian"]
    for q in [0.05, 0.5]:
        phi = right_inverse_phi(model, q)
        for lam in np.linspace(phi + 1.0, phi + 20.0, 5):
            target = 1.0 / (laplace_exponent(model, lam) - q)
            got = laplace_of_candidate(lambda u: bm_sinh_candidate(u, q), lam)
            assert got == pytest.approx(target, rel=1e-9)


def test_cl_partial_fraction_candidate_roundtrip_oracle(catalog):
    model = catalog["cramer_lundberg"]
    for q in [0.05, 0.5]:
        phi = right_inverse_phi(model, q)
        for lam in np.linspace(phi + 1.0, phi + 20.0, 5):
            target = 1.0 / (laplace_exponent(model, lam) - q)
            got = laplace_of_candidate(lambda u: cl_partial_fraction_candidate(u, q), lam)
            assert got == pytest.approx(target, rel=1e-9)


def test_scale_w_matches_bm_sinh(catalog, scale_cache):
    sf = scale_cache.get(catalog["brownian"], 0.05)
    xs = np.linspace(0.01, 5.0, 31)
    assert np.max(np.abs(sf.w(xs) - bm_sinh_candidate(xs, 0.05))
                  / bm_sinh_candidate(xs, 0.05)) < 1e-8


def test_scale_w_matches_cl_partial_fractions(catalog, scale_cache):
    sf = scale_cache.get(catalog["cramer_lundberg"], 0.05)
    xs = np.linspace(0.01, 5.0, 31)
    cand = cl_partial_fraction_candidate(xs, 0.05)
    assert np.max(np.abs(sf.w(xs) - cand) / cand) < 1e-8


def test_w_vanishes_on_negatives(catalog, scale_cache):
    for model in catalog.values():
        sf = scale_cache.get(model, 0.05)
        assert sf.w(-1.0) == 0.0
        assert sf.w(-1e-12) == 0.0


def test_w_at_zero_by_variation_class(catalog, scale_cache):
    assert scale_cache.get(catalog["brownian"], 0.05).w(0.0) == 0.0
    assert scale_cache.get(catalog["jump_diffusion"], 0.05).w(0.0) == 0.0
    assert scale_cache.get(catalog["tempered_stable"], 0.05).w(0.0) == 0.0
    cl = scale_cache.get(catalog["cramer_lundberg"], 0.05)
    assert cl.w(0.0) == pytest.approx(1.0 / 1.5, abs=1e-14)
    # the x -> 0 limit of the inversion agrees with the natural-drift reciprocal
    inv = ScaleFunction(catalog["cramer_lundberg"], 0.05, method="laplace_inversion")
    assert float(inv.w_exact(1e-4)) == pytest.approx(1.0 / 1.5, rel=2e-3)


def test_w_strictly_increasing_positive(catalog, scale_cache):
    xs = np.linspace(1e-3, 6.0, 200)
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.05)
        vals = sf.w(xs)
        assert np.all(vals > 0), name
        assert np.all(np.diff(vals) > 0), name


def test_w_prime_matches_bm_derivative(catalog, scale_cache):
    mu, s, q = 0.25, 1.0, 0.05
    delta = math.sqrt(mu * mu + 2 * q * s * s)
    sf = scale_cache.get(catalog["brownian"], q)
    xs = np.linspace(0.05, 4.0, 17)
    exact = (2.0 / delta) * np.exp(-mu * xs) * (
        -mu * np.sinh(xs * delta) + delta * np.cosh(xs * delta))
    assert np.max(np.abs(sf.w_prime(xs) - exact) / np.abs(exact)) < 1e-7
    inv = ScaleFunction(catalog["brownian"], q, method="laplace_inversion")
    assert np.max(np.abs(inv.w_prime(xs) - exact) / np.abs(exact)) < 1e-5


def test_w_prime_positive(catalog, scale_cache):
    xs = np.linspace(0.05, 5.0, 40)
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.1)
        assert np.all(sf.w_prime(xs) > 0), name


def test_w_prime_blows_up_at_zero_unbounded_variation_no_gaussian(catalog, scale_cache):
    sf = scale_cache.get(catalog["tempered_stable"], 0.05)
    xs = 0.1 * 2.0 ** -np.arange(8)
    vals = sf.w_prime(xs)
    assert np.all(np.diff(vals) > 0)          # grows as x decreases
    assert vals[-1] > 10.0 * vals[0]


def test_z_basics(catalog, scale_cache):
    for name, model in catalog.items():
        sf0 = scale_cache.get(model, 0.0)
        assert sf0.z(1.3) == 1.0              # q = 0
        sfq = scale_cache.get(model, 0.05)
        assert sfq.z(-2.0) == 1.0             # W vanishes on negatives
        assert sfq.z(0.0) == 1.0
        xs = np.linspace(0.0, 4.0, 15)
        zs = sfq.z(xs)
        assert np.all(zs >= 1.0 - 1e-12), name
        assert np.all(np.diff(zs) >= -1e-12), name


def test_z_bm_analytic_value(catalog, scale_cache):
    q = 0.05
    sf = scale_cache.get(catalog["brownian"], q)
    integral, _ = quad(lambda u: bm_sinh_candidate(u, q), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-12)
    assert sf.z(1.0) == pytest.approx(1.0 + q * integral, abs=1e-11)


def test_invert_laplace_matches_closed_forms(catalog):
    xs = np.linspace(0.01, 5.0, 25)
    for name in ["brownian", "cramer_lundberg", "jump_diffusion"]:
        model = catalog[name]
        sf = ScaleFunction(model, 0.05)
        assert sf.method == "closed_form"
        inv = invert_laplace(model, 0.05, xs)
        rel = np.abs(inv - sf.w(xs)) / sf.w(xs)
        assert np.max(rel) < 1e-8, name


def test_invert_laplace_monotone(catalog):
    xs = np.linspace(0.05, 4.0, 60)
    vals = invert_laplace(catalog["tempered_stable"], 0.1, xs)
    assert np.all(np.diff(vals) > 0)


def test_roundtrip_against_transform(catalog, scale_cache):
    # Laplace transform of the computed W matches 1/(psi - q) above Phi
    for name, model in catalog.items():
        for q in [0.0, 0.05, 0.5]:
            sf = scale_cache.get(model, q)
            for off in [1.0, 4.0, 16.0]:
                lam = sf.phi + off
                target = 1.0 / (laplace_exponent(model, lam) - q)
                got = transform_roundtrip(sf, lam)
                assert abs(got - target) <= 1e-6 * abs(target), (name, q, off)


def test_roundtrip_at_phi_plus_two(catalog, scale_cache):
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.05)
        lam = sf.phi + 2.0
        target = 1.0 / (laplace_exponent(model, lam) - 0.05)
        assert transform_roundtrip(sf, lam) == pytest.approx(target, rel=1e-6)


def test_inversion_cache_consistent_with_exact(catalog):
    sf = ScaleFunction(catalog["tempered_stable"], 0.1)
    assert sf.method == "laplace_inversion"
    xs = np.array([0.03, 0.7, 2.2, 7.9])
    cached = sf.w(xs)
    exact = sf.w_exact(xs)
    assert np.max(np.abs(cached - exact) / exact) < 1e-6
    assert sf.tolerance_estimate < 1e-6


def test_scale_function_reports_method_and_params(catalog):
    sf = ScaleFunction(catalog["tempered_stable"], 0.05)
    assert sf.method == "laplace_inversion"
    assert sf.inversion_params["grid_nodes"] >= 512
    assert sf.phi == pytest.approx(right_inverse_phi(catalog["tempered_stable"], 0.05))


def test_w_and_z_beyond_cache_range(catalog):
    # past x_max, W is inverted directly and int W gains a quadrature tail
    q = 0.05
    sf = ScaleFunction(catalog["tempered_stable"], q, x_max=2.0)
    xs = np.array([2.5, 3.0])
    assert np.max(np.abs(sf.w(xs) - sf.w_exact(xs)) / sf.w_exact(xs)) < 1e-9
    tail, _ = quad(lambda u: float(sf.w_exact(u)), 2.0, 3.0, epsabs=1e-12, epsrel=1e-11)
    anti = float(sf.w_antiderivative(2.0)) + tail
    assert float(sf.w_antiderivative(3.0)) == pytest.approx(anti, rel=1e-9)
    assert sf.z(3.0) == pytest.approx(1.0 + q * anti, rel=1e-12)
    np.testing.assert_allclose(sf.z(xs), 1.0 + q * sf.w_antiderivative(xs), rtol=1e-14)


def loop_w_prime(sf, xs):
    """Point-by-point reference for the stencil derivative of the inversion method."""
    out = []
    for xi in xs:
        h = max(1e-6, 1e-6 * xi)
        if xi - 2.0 * h <= 0.0:
            h = xi / 4.0
        d1 = (sf.w(xi + h) - sf.w(xi - h)) / (2.0 * h)
        d2 = (sf.w(xi + 0.5 * h) - sf.w(xi - 0.5 * h)) / h
        out.append((4.0 * d2 - d1) / 3.0)
    return np.array(out)


def loop_w_second(sf, xs):
    out = []
    for xi in xs:
        h = max(1e-5, 1e-5 * xi)
        if xi - 2.0 * h <= 0.0:
            h = xi / 4.0
        out.append((sf.w(xi + h) - 2.0 * sf.w(xi) + sf.w(xi - h)) / (h * h))
    return np.array(out)


def loop_w_antiderivative(sf, xs):
    """Piece-by-piece reference for int_0^x W over the cached interpolant."""
    phi, c, nodes = sf.phi, sf._interp.c, sf._anti_nodes

    def piece(j, h):
        if abs(phi * h) < 1e-4:
            mom = [sum(phi ** i * h ** (k + 1 + i) / (math.factorial(i) * (k + 1 + i))
                       for i in range(6)) for k in range(4)]
        else:
            e = math.exp(phi * h)
            mom = [(e - 1.0) / phi]
            for k in range(1, 4):
                mom.append((h ** k * e - k * mom[-1]) / phi)
        return math.exp(phi * nodes[j]) * (c[0, j] * mom[3] + c[1, j] * mom[2]
                                           + c[2, j] * mom[1] + c[3, j] * mom[0])

    cum = np.cumsum([0.0] + [piece(j, nodes[j + 1] - nodes[j])
                             for j in range(nodes.size - 1)])
    out = []
    for xi in xs:
        j = min(max(int(np.searchsorted(nodes, xi, side="right")) - 1, 0), nodes.size - 2)
        out.append(cum[j] + piece(j, xi - nodes[j]))
    return np.array(out)


def test_array_evaluators_match_point_loops(catalog):
    sf = ScaleFunction(catalog["tempered_stable"], 0.05, x_max=3.0)
    xs = np.array([1e-7, 3e-6, 1e-3, 0.05, 0.4, 1.1, 2.9])
    # same arithmetic per point: equal to the last bit
    assert np.array_equal(sf.w_prime(xs), loop_w_prime(sf, xs))
    assert np.array_equal(sf.w_second(xs), loop_w_second(sf, xs))
    # np.exp and math.exp may differ in the last bit, which the moment
    # recursion amplifies; 1e-10 is the precision the Z identity is held to
    np.testing.assert_allclose(sf.w_antiderivative(xs), loop_w_antiderivative(sf, xs),
                               rtol=1e-10, atol=0.0)


def test_exponential_moments_against_mpmath():
    # I_k = int_0^h e^{phi t} t^k dt across the series/recursion switch
    mp = pytest.importorskip("mpmath")
    from levyfluct.scale import _exp_moments

    mp.mp.dps = 40
    phi = 0.37
    hs = np.geomspace(1e-8, 10.0, 49) / phi
    mom = _exp_moments(phi, hs)
    for i, h in enumerate(hs):
        for k in range(4):
            ref = mp.quad(lambda t: mp.exp(phi * t) * t ** k, [0, h])
            assert abs(mom[k, i] - ref) <= 1e-14 * ref, (k, phi * h)


def test_w_antiderivative_against_mpmath_quadrature(catalog):
    # int_0^x of the cached W = e^{phi u} * interpolant, piece by piece in mpmath
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    sf = ScaleFunction(catalog["tempered_stable"], 0.05)
    nodes, coef = sf._anti_nodes, sf._interp.c
    phi = mp.mpf(sf.phi)

    def piece(j, h):
        c = [mp.mpf(float(v)) for v in coef[:, j]]
        xj = mp.mpf(float(nodes[j]))
        return mp.quad(lambda t: mp.exp(phi * (xj + t)) * (((c[0] * t + c[1]) * t + c[2]) * t
                                                           + c[3]),
                       [0, h], method="gauss-legendre")

    for x in (0.05, 1.0):
        j = int(np.searchsorted(nodes, x, side="right")) - 1
        ref = mp.fsum(piece(i, mp.mpf(float(nodes[i + 1])) - mp.mpf(float(nodes[i])))
                      for i in range(j))
        ref += piece(j, mp.mpf(x) - mp.mpf(float(nodes[j])))
        assert abs(sf.w_antiderivative(x) - ref) <= 1e-14 * ref, x
