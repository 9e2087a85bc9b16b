"""Scale functions: closed forms, Laplace inversion, transforms, Z."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from levyfluct import (ModelError, ScaleFunction, invert_laplace,
                       laplace_exponent, right_inverse_phi, transform_roundtrip)
from levyfluct import scale
from levyfluct.models import LevyTriplet, exponential_jumps, no_jumps, table_jumps
from levyfluct.quadrature import quad
from levyfluct.scale import BLOCK_ROWS, _Spline, _tilted_inverse

# the 40-segment geometric table of test_table_measure.py
GEO = np.geomspace(0.05, 8.0, 40)
GEO_TABLE = LevyTriplet(gamma=1.0, sigma=0.0, measure=table_jumps(GEO, 0.7 * np.exp(-1.2 * GEO)))


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
    """Piece-by-piece reference for int_0^x W: the directly inverted W below the
    first cache node, the cached interpolant past it."""
    phi, c, nodes = sf.phi, sf._interp.c, sf._anti_nodes

    def first(x):
        # int_0^x W in u = sqrt(t), where W may grow like t^(1/2)
        return quad(lambda u: 2.0 * u * float(sf.w_exact(u * u)), 0.0, math.sqrt(x),
                    epsabs=0.0, epsrel=1e-12)[0]

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

    cum = np.cumsum([0.0, first(nodes[1])] + [piece(j, nodes[j + 1] - nodes[j])
                                              for j in range(1, nodes.size - 1)])
    out = []
    for xi in xs:
        if xi < nodes[1]:
            out.append(first(xi))
            continue
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
    # int_0^x of W piece by piece in mpmath: the directly inverted W on the first
    # piece (in u = sqrt(t)), the cached W = e^{phi u} * interpolant past it
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

    first = mp.quad(lambda u: 2 * u * float(sf.w_exact(float(u) ** 2)),
                    [0, mp.sqrt(mp.mpf(float(nodes[1])))], method="gauss-legendre")
    for x in (0.05, 1.0):
        j = int(np.searchsorted(nodes, x, side="right")) - 1
        ref = first + mp.fsum(piece(i, mp.mpf(float(nodes[i + 1])) - mp.mpf(float(nodes[i])))
                              for i in range(1, j))
        ref += piece(j, mp.mpf(x) - mp.mpf(float(nodes[j])))
        assert abs(sf.w_antiderivative(x) - ref) <= 1e-14 * ref, x


def mp_tempered_w(model, q, xs, phi_guess):
    """W^(q) of a tempered-stable model by mpmath's Talbot inversion at 30 digits."""
    mp = pytest.importorskip("mpmath")
    p = model.measure.params
    with mp.workdps(30):
        c, alpha, rho = mp.mpf(p["c"]), mp.mpf(p["alpha"]), mp.mpf(p["rho"])
        gamma, qm = mp.mpf(model.gamma), mp.mpf(q)
        kappa1 = c * rho ** (alpha - 1) * mp.gammainc(1 - alpha, rho)
        g_neg = c * mp.gamma(-alpha)

        def psi(lam):
            return (gamma * lam - lam * kappa1
                    + g_neg * ((lam + rho) ** alpha - rho ** alpha - alpha * rho ** (alpha - 1) * lam))

        phi = mp.findroot(lambda lam: psi(lam) - qm, mp.mpf(phi_guess))
        return np.array([float(mp.exp(phi * x) * mp.invertlaplace(
            lambda s: 1 / (psi(s + phi) - qm), x, method="talbot")) for x in xs])


@pytest.mark.parametrize("q", [0.0, 0.05, 0.5])
def test_tempered_w_within_its_estimate_of_mpmath(catalog, q):
    # the cache's interpolant, not the inversion, set the error: a monotone
    # cubic read 1.9e-9 here against an estimate of 2e-10
    model = catalog["tempered_stable"]
    sf = ScaleFunction(model, q)
    xs = np.array([0.05, 0.5, 1.0, 2.0, 5.0])
    ref = mp_tempered_w(model, q, xs, sf.phi)
    err = np.max(np.abs(sf.w(xs) - ref) / ref)
    assert err <= 1e-10
    assert err <= sf.tolerance_estimate


def test_w_positive_and_increasing_next_to_zero(catalog):
    from levyfluct.models import LevyTriplet, table_jumps

    models = {f"{name}[q={q}]": (model, q) for name, model in catalog.items()
              for q in (0.0, 0.05, 0.5)}
    table = table_jumps([0.05, 0.5, 1.0, 3.0, 8.0], [0.7, 0.4, 0.25, 0.05, 0.001])
    models["table"] = (LevyTriplet(gamma=0.5, sigma=0.0, measure=table), 0.05)
    xs = np.linspace(0.0, 2e-5, 2001)[1:]
    for label, (model, q) in models.items():
        vals = ScaleFunction(model, q, method="laplace_inversion").w(xs)
        assert np.all(vals > 0), label
        assert np.all(np.diff(vals) > 0), label


@pytest.mark.parametrize("q", [0.0, 0.05, 0.5])
def test_tempered_w_below_the_first_cache_node_matches_mpmath(catalog, q):
    # below x_max * 1e-6 W is inverted directly: a cubic from W(0) = 0 to the
    # first node misses W(y) ~ y^(1/2) by 5% to 94% at these points
    model = catalog["tempered_stable"]
    sf = ScaleFunction(model, q)
    xs = np.array([1e-9, 1e-7, 1e-6, 5e-6])
    ref = mp_tempered_w(model, q, xs, sf.phi)
    np.testing.assert_allclose(sf.w(xs), ref, rtol=1e-9, atol=0.0)


def test_inversion_does_not_depend_on_its_batch(catalog):
    model = catalog["tempered_stable"]
    sf = ScaleFunction(model, 0.05)
    xs = np.geomspace(1e-9, 20.0, 2048)
    picks = np.arange(0, xs.size, 61)
    for batch, one in ((invert_laplace(model, 0.05, xs), lambda x: invert_laplace(model, 0.05, x)),
                       (sf.w_exact(xs), sf.w_exact)):
        alone = np.array([one(xs[i]) for i in picks])
        assert np.array_equal(batch[picks], alone)


@pytest.mark.parametrize("name", ["geometric_table", "jump_diffusion"])
def test_inversion_is_bit_identical_across_blocks(catalog, name):
    model = GEO_TABLE if name == "geometric_table" else catalog[name]
    xs = np.geomspace(1e-6, 20.0, 2048)
    # whole blocks, then a partial last block
    for n in (xs.size, xs.size - BLOCK_ROWS // 2):
        batch = invert_laplace(model, 0.05, xs[:n])
        last = (n - 1) // BLOCK_ROWS * BLOCK_ROWS
        picks = [0, BLOCK_ROWS - 1, BLOCK_ROWS, 5 * BLOCK_ROWS + 7, last - 1, last, n - 1]
        alone = np.array([invert_laplace(model, 0.05, xs[i]) for i in picks])
        assert np.array_equal(batch[picks], alone), n


@pytest.mark.parametrize("name", ["tempered_stable", "geometric_table"])
def test_scale_function_build_memory_stays_flat(catalog, monkeypatch, name):
    model = GEO_TABLE if name == "geometric_table" else catalog[name]
    # an empty memo, so that the build measured is a cold one
    monkeypatch.setattr(scale, "_BUILDS", scale._Memo())
    tracemalloc.start()
    try:
        ScaleFunction(model, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


NAN_CASES = ([(name, call, math.nan)
              for name in ("tempered_stable", "jump_diffusion")
              for call in ("w", "w_exact", "w_antiderivative", "z", "w_prime", "w_second",
                           "invert_laplace")]
             + [("tempered_stable", "w", math.inf)]
             # W has a kink at 0 and vanishes below, so its derivatives exist at x > 0 only
             # (jump_diffusion's partial-fraction sum would read w_second(-1.0) = -452.25)
             + [(name, call, bad)
                for name in ("tempered_stable", "jump_diffusion")
                for call in ("w_prime", "w_second") for bad in (0.0, -1.0)])


@pytest.mark.parametrize("name, call, bad", NAN_CASES)
def test_scale_functions_raise_at_nan_and_past_the_inversion(catalog, scale_cache, name, call,
                                                            bad):
    sf = scale_cache.get(catalog[name], 0.05)
    fn = ((lambda x: invert_laplace(sf.model, sf.q, x)) if call == "invert_laplace"
          else getattr(sf, call))
    with pytest.raises(ValueError):
        fn(np.array([0.5, bad]))


def test_scale_functions_keep_their_limits_at_infinity(catalog, scale_cache):
    for name in ("tempered_stable", "jump_diffusion"):
        assert scale_cache.get(catalog[name], 0.05).w(-math.inf) == 0.0
    assert scale_cache.get(catalog["jump_diffusion"], 0.05).w(math.inf) == math.inf


def test_w_difference_matches_the_plain_difference(catalog):
    # below c = 0.3 the closed forms' plain difference itself cancels between
    # exponentials, and far out both sides carry the rounding of phi * c in
    # e^{phi c}, so the comparison runs over c in [0.3, 5]
    eps = np.finfo(float).eps
    ys = np.array([0.0, 1e-14, 1e-10, 1e-6, 1e-3, 0.02, 0.2, 1.0, 3.0, 12.0])
    for name, model in catalog.items():
        for q in (0.0, 0.05, 0.5):
            sf = ScaleFunction(model, q)
            for c in (0.3, 1.0, 1.7, 2.0, 5.0):
                plain = sf.w(c - ys) - sf.w(c)
                assert np.all(np.abs(sf.w_difference(c, ys) - plain)
                              <= 8.0 * eps * sf.w(c)), (name, q, c)
            for c in (0.3, 1.0, 2.0):
                for y in (1e-14, 1e-10):
                    assert -sf.w_difference(c, y) / y == pytest.approx(
                        sf.w_prime(c), rel=1e-6), (name, q, c, y)


# ---------------------------------------------------------------------------
# the cache's spline against scipy's CubicSpline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["brownian", "cramer_lundberg", "jump_diffusion",
                                  "tempered_stable"])
@pytest.mark.parametrize("q", [0.0, 0.05, 0.5])
def test_cache_spline_is_bit_equal_to_scipy_cubic_spline(catalog, scale_cache, name, q):
    from scipy.interpolate import CubicSpline

    model = catalog[name]
    sf = scale_cache.get(model, q, method="laplace_inversion")
    # the cache's nodes and values, rebuilt as ScaleFunction builds them
    xs = sf._interp.x
    gs = np.concatenate([[sf.w0], np.maximum(_tilted_inverse(model, q, sf.phi, xs[1:]), 0.0)])
    ours, ref = _Spline(xs, gs), CubicSpline(xs, gs, extrapolate=False)
    assert np.array_equal(ours.c, sf._interp.c)
    assert np.array_equal(ours.x, ref.x) and np.array_equal(ours.c, ref.c)
    rng = np.random.default_rng(5)
    inside = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:]), rng.uniform(0.0, xs[-1], 4000)])
    for nu in (0, 1):
        assert np.array_equal(ours(inside, nu), ref(inside, nu)), nu
        # the sign of a zero too, and a 2-D argument keeps its shape
        assert np.array_equal(np.signbit(ours(inside, nu)), np.signbit(ref(inside, nu)))
        grid = inside[:1200].reshape(100, 12)
        assert np.array_equal(ours(grid, nu), ref(grid, nu))
    # the last node uses the last piece; outside the nodes, and NaN, give NaN
    last = ref.c[:, -1]
    h = xs[-1] - xs[-2]
    assert ours(xs[-1:])[0] == ref(xs[-1:])[0] == (((0.0 + last[3]) + last[2] * h)
                                                   + last[1] * (h * h)) + last[0] * (h * h * h)
    outside = np.array([-1e-300, -1.0, np.nextafter(xs[-1], np.inf), 2.0 * xs[-1], np.inf,
                        -np.inf, np.nan])
    assert np.all(np.isnan(ours(outside))) and np.all(np.isnan(ref(outside)))
    assert np.all(np.isnan(ours(outside, 1)))


# -- the build memo --------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """An empty build memo, and the list of the builds it did not serve."""
    made = []
    build = ScaleFunction._build

    def counted(self):
        made.append((self.model, self.q, self.method, self.x_max))
        return build(self)

    monkeypatch.setattr(scale, "_BUILDS", scale._Memo())
    monkeypatch.setattr(ScaleFunction, "_build", counted)
    return made


@pytest.mark.parametrize("method", ["closed_form", "laplace_inversion"])
@pytest.mark.parametrize("q, x_max", [(math.nan, 10.0), (math.inf, 10.0), (-0.1, 10.0),
                                      (0.05, math.nan), (0.05, -1.0), (0.05, 0.0),
                                      (0.05, math.inf)])
def test_build_rejects_a_bad_rate_or_range_before_any_work(catalog, builds, method, q, x_max):
    with pytest.raises(ModelError):
        ScaleFunction(catalog["jump_diffusion"], q, method=method, x_max=x_max)
    assert builds == []


def custom_measure(intensity, decay):
    """The exponential family's integrals as a ``custom`` measure: no parameters key it."""
    return replace(exponential_jumps(intensity, decay), family="custom", params={})


def test_every_build_input_keys_its_own_build(builds):
    def model(gamma=0.3, sigma=0.6, measure=None):
        return LevyTriplet(gamma=gamma, sigma=sigma,
                           measure=measure if measure is not None else exponential_jumps(0.8, 1.5))

    first = ScaleFunction(model(), 0.05)
    # equal parameters in distinct objects share the build, and each instance keeps its model
    again_model = model()
    again = ScaleFunction(again_model, 0.05)
    assert len(builds) == 1 and again is not first and again.model is again_model
    assert again._roots is first._roots
    variants = [(model(gamma=0.31), 0.05, {}), (model(sigma=0.61), 0.05, {}),
                (model(measure=exponential_jumps(0.81, 1.5)), 0.05, {}),
                (model(measure=exponential_jumps(0.8, 1.51)), 0.05, {}),
                (model(measure=no_jumps()), 0.05, {}), (model(), 0.06, {}),
                (model(), 0.05, dict(x_max=9.0)), (model(), 0.05, dict(method="laplace_inversion"))]
    for m, q, kw in variants:
        ScaleFunction(m, q, **kw)
    assert len(builds) == 1 + len(variants)
    # "auto" settles to the method it names, so it shares that method's build
    ScaleFunction(model(), 0.05, method="closed_form")
    assert len(builds) == 1 + len(variants)
    # custom measures with equal gamma and sigma never share; one measure object does
    one, other = custom_measure(0.8, 1.5), custom_measure(0.8, 1.5)
    sf_one = ScaleFunction(model(measure=one), 0.05)
    sf_other = ScaleFunction(model(measure=other), 0.05)
    assert len(builds) == 3 + len(variants)
    ScaleFunction(model(measure=one), 0.05)
    assert len(builds) == 3 + len(variants)
    assert sf_one._interp is not sf_other._interp


@pytest.mark.parametrize("name, method", [("jump_diffusion", "closed_form"),
                                          ("tempered_stable", "laplace_inversion"),
                                          ("cramer_lundberg", "laplace_inversion")])
def test_memo_hit_is_bit_equal_to_a_cold_build(catalog, monkeypatch, builds, name, method):
    model = catalog[name]
    cold = ScaleFunction(model, 0.05, method=method)
    hit = ScaleFunction(model, 0.05, method=method)
    assert len(builds) == 1 and hit is not cold
    monkeypatch.setattr(scale, "_BUILDS", scale._Memo())
    rebuilt = ScaleFunction(model, 0.05, method=method)
    assert len(builds) == 2
    xs = np.array([0.0, 1e-7, 3e-5, 0.05, 0.3, 1.0, 2.5, 9.9, 10.0, 11.5])
    for attr in scale._BUILT[method]:
        assert getattr(hit, attr) is getattr(cold, attr)
    for call in ("w", "w_exact", "w_antiderivative", "z", "w_prime", "w_second"):
        assert np.array_equal(getattr(hit, call)(xs[1:]), getattr(rebuilt, call)(xs[1:])), call
    assert np.array_equal(hit.w_difference(1.3, xs[:6]), rebuilt.w_difference(1.3, xs[:6]))
    assert ([hit.phi, hit.w0, hit.tolerance_estimate]
            == [rebuilt.phi, rebuilt.w0, rebuilt.tolerance_estimate])
    # what the instances share cannot be written through any of them
    arrays = ([hit._roots, hit._coeffs] if method == "closed_form"
              else [hit._anti_nodes, hit._anti_cum, hit._interp.c, hit._interp.x])
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_memo_keeps_the_most_recent_builds(catalog, monkeypatch, builds):
    monkeypatch.setattr(scale, "MEMO_ENTRIES", 2)
    model = catalog["jump_diffusion"]
    for q in (0.1, 0.2, 0.1, 0.3, 0.1, 0.2):
        ScaleFunction(model, q)
    # 0.1 stays as the most recently used; 0.2 is dropped when 0.3 comes in
    assert [q for _, q, _, _ in builds] == [0.1, 0.2, 0.3, 0.2]


def test_memo_serves_concurrent_builds(catalog, monkeypatch, builds):
    # more threads than cores and a short switch interval, over more keys than entries
    monkeypatch.setattr(scale, "MEMO_ENTRIES", 3)
    model = catalog["cramer_lundberg"]
    qs = [0.01 * (k % 7) for k in range(56)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(lambda q: ScaleFunction(model, q).w(np.array([0.5, 2.0])),
                                   qs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(scale._BUILDS._items) <= 3
    monkeypatch.setattr(scale, "_BUILDS", scale._Memo())
    for q, value in zip(qs, values):
        assert np.array_equal(value, ScaleFunction(model, q).w(np.array([0.5, 2.0])))
