"""Exit, resolvent, creeping and overshoot-functional identities."""

import functools
import math

import numpy as np
import pytest

from levyfluct import (ConditionNotMetError, ExitProblem, ExtensionRecipe,
                       ModelError, RefractedSpec, ReflectedSpec, ScaleFunction,
                       boundary_start, brownian_motion, check_membership,
                       creeping_transform, extend_penalty, mass_balance_gap,
                       overshoot_functional_general, overshoot_functional_simple,
                       overshoot_of_scale_function, overshoot_zero_extension,
                       resolvent_density, two_sided_exit_up)
from levyfluct import generator, scale
from levyfluct.quadrature import quad

ONE = lambda y: 1.0
A, B = 0.0, 2.0


def z_form(sf, prob):
    a, b, x = prob.a, prob.b, prob.x
    return float(sf.z(x - a) - sf.w(x - a) * sf.z(b - a) / sf.w(b - a))


def test_exit_problem_validation():
    with pytest.raises(ModelError):
        ExitProblem(1.0, 0.0, 0.1, 0.5)
    with pytest.raises(ModelError):
        ExitProblem(0.0, 1.0, 0.1, 2.0)
    with pytest.raises(ModelError):
        ExitProblem(0.0, 1.0, -0.1, 0.5)
    # the reflected and refracted specs are exit problems, checked alike
    model = brownian_motion()
    for make in (functools.partial(ReflectedSpec, model=model),
                 functools.partial(RefractedSpec, model=model, delta=0.1, c=0.5)):
        assert isinstance(make(a=0.0, b=1.0, q=0.1, x=0.5), ExitProblem)
        for a, b, q, x in ((1.0, 0.0, 0.1, 0.5), (0.0, 1.0, 0.1, 2.0), (0.0, 1.0, -0.1, 0.5),
                           (0.0, 1.0, math.nan, 0.5)):
            with pytest.raises(ModelError):
                make(a=a, b=b, q=q, x=x)


def test_two_sided_exit_up_edges(catalog, scale_cache):
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.05)
        assert two_sided_exit_up(sf, ExitProblem(A, B, 0.05, B)) == pytest.approx(1.0)
    # start at a: zero for unbounded variation, positive for bounded
    sf_ts = scale_cache.get(catalog["tempered_stable"], 0.05)
    assert two_sided_exit_up(sf_ts, ExitProblem(A, B, 0.05, A)) == 0.0
    sf_cl = scale_cache.get(catalog["cramer_lundberg"], 0.05)
    assert two_sided_exit_up(sf_cl, ExitProblem(A, B, 0.05, A)) > 0.0


def test_resolvent_density_shape(catalog, scale_cache):
    model = catalog["jump_diffusion"]
    sf = scale_cache.get(model, 0.05)
    prob = ExitProblem(A, B, 0.05, 1.0)
    zs = np.linspace(A, B, 41)
    vals = [resolvent_density(sf, prob, float(z)) for z in zs]
    assert all(v >= 0.0 for v in vals)
    assert resolvent_density(sf, prob, A) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ModelError):
        resolvent_density(sf, prob, B + 0.5)


def test_mass_balance_analytic(catalog, scale_cache):
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.05)
        for x in [0.5, 1.0, 1.7]:
            gap = mass_balance_gap(sf, ExitProblem(A, B, 0.05, x))
            assert gap < 1e-6, name


def test_creeping_zero_without_gaussian_part(catalog, scale_cache):
    for name in ["cramer_lundberg", "tempered_stable"]:
        sf = scale_cache.get(catalog[name], 0.05)
        for x in [0.3, 1.0, 1.9]:
            assert creeping_transform(sf, ExitProblem(A, B, 0.05, x)) == 0.0


def test_creeping_probability_range_and_bm_conservation(catalog, scale_cache):
    sf = scale_cache.get(catalog["brownian"], 0.0)
    for x in [0.4, 1.0, 1.6]:
        prob = ExitProblem(A, B, 0.0, x)
        creep = creeping_transform(sf, prob)
        assert 0.0 <= creep <= 1.0
        # no jumps: the only exits are creeping down or crossing up
        assert creep + two_sided_exit_up(sf, prob) == pytest.approx(1.0, abs=1e-8)
    sf_jd = scale_cache.get(catalog["jump_diffusion"], 0.0)
    assert 0.0 <= creeping_transform(sf_jd, ExitProblem(A, B, 0.0, 1.0)) <= 1.0


def test_simple_form_reproduces_z_identity(catalog, scale_cache):
    # 10-point (x, q) grid per model
    p1 = extend_penalty(ONE, A, B, "constant_one")
    for name, model in catalog.items():
        rep = check_membership(p1, model)
        for q in [0.02, 0.4]:
            sf = scale_cache.get(model, q, x_max=3.0)
            for x in [0.2, 0.7, 1.0, 1.5, 1.95]:
                prob = ExitProblem(A, B, q, x)
                val = overshoot_functional_simple(p1, sf, prob, membership=rep)
                assert abs(val.value - z_form(sf, prob)) < 1e-10, (name, q, x)


def test_general_identity_reproduces_z_on_the_tempered_fixture(catalog, scale_cache):
    # with f = 1 the general identity is the Z identity, which holds only if
    # Z^(q) integrates the W that W^(q) returns, also below the first cache node
    p1 = extend_penalty(ONE, A, B, "constant_one")
    model = catalog["tempered_stable"]
    rep = check_membership(p1, model)
    for q in [0.02, 0.4]:
        sf = scale_cache.get(model, q, x_max=10.0)
        for x in [0.2, 0.7, 1.0, 1.5, 1.95]:
            prob = ExitProblem(A, B, q, x)
            val = overshoot_functional_general(p1, sf, prob, membership=rep)
            assert abs(val.value - z_form(sf, prob)) < 1e-10, (q, x)


def test_q_zero_constant_penalty_complements_up_exit(catalog, scale_cache):
    p1 = extend_penalty(ONE, A, B, "constant_one")
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.0)
        prob = ExitProblem(A, B, 0.0, 1.2)
        val = overshoot_functional_simple(p1, sf, prob)
        assert val.value + two_sided_exit_up(sf, prob) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= val.value <= 1.0


def test_general_equals_simple_where_admissible(catalog, scale_cache):
    p1 = extend_penalty(ONE, A, B, "constant_one")
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.05, x_max=3.0)
        rep = check_membership(p1, model)
        prob = ExitProblem(A, B, 0.05, 1.0)
        vg = overshoot_functional_general(p1, sf, prob, membership=rep)
        vs = overshoot_functional_simple(p1, sf, prob, membership=rep)
        assert vg.value == pytest.approx(vs.value, abs=1e-8), name


def test_simple_requires_admissibility(catalog, scale_cache):
    p_zero = extend_penalty(ONE, A, B, "zero")
    ts = catalog["tempered_stable"]
    sf = scale_cache.get(ts, 0.05, x_max=3.0)
    rep = check_membership(p_zero, ts)
    with pytest.raises(ConditionNotMetError):
        overshoot_functional_simple(p_zero, sf, ExitProblem(A, B, 0.05, 1.0),
                                    membership=rep)


@pytest.mark.parametrize("identity", [overshoot_functional_general, overshoot_functional_simple])
def test_unverified_membership_is_refused_by_both_forms(catalog, scale_cache, identity):
    # the scale_function extension of a model of unbounded variation without a
    # Gaussian part: no form of the identity runs it, the error names the one that does
    ts = catalog["tempered_stable"]
    sf = scale_cache.get(ts, 0.05, x_max=4.0)
    p = extend_penalty(sf.w, 0.5, 2.5, ExtensionRecipe(kind="scale_function", scale=sf),
                       f_kinks=(0.0,))
    with pytest.raises(ConditionNotMetError, match="overshoot_of_scale_function"):
        identity(p, sf, ExitProblem(0.5, 2.5, 0.05, 1.5))


# every entry point that takes a ScaleFunction and an ExitProblem, as (penalty, sf, prob) -> value
RATE_ENTRY_POINTS = {
    "two_sided_exit_up": lambda p, sf, prob: two_sided_exit_up(sf, prob),
    "resolvent_density": lambda p, sf, prob: resolvent_density(sf, prob, 0.5),
    "creeping_transform": lambda p, sf, prob: creeping_transform(sf, prob),
    "general": lambda p, sf, prob: overshoot_functional_general(p, sf, prob),
    "simple": lambda p, sf, prob: overshoot_functional_simple(p, sf, prob),
    "zero_extension": lambda p, sf, prob: overshoot_zero_extension(np.exp, sf, prob),
    "boundary_start": lambda p, sf, prob: boundary_start(
        p, sf, ExitProblem(prob.a, prob.b, prob.q, prob.a)),
    "mass_balance_gap": lambda p, sf, prob: mass_balance_gap(sf, prob),
}


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry in RATE_ENTRY_POINTS for name in ["jump_diffusion", "cramer_lundberg"]
    # of unbounded variation, boundary_start is f(a) and reads no scale function
    if (entry, name) != ("boundary_start", "jump_diffusion")])
def test_scale_function_at_another_rate_is_refused(catalog, scale_cache, entry, name):
    sf = scale_cache.get(catalog[name], 0.05)
    p = extend_penalty(np.exp, A, B, "constant_one")
    with pytest.raises(ModelError, match="q = 0.05 for a problem at q = 0.4"):
        RATE_ENTRY_POINTS[entry](p, sf, ExitProblem(A, B, 0.4, 1.0))


def test_zero_extension_route(catalog, scale_cache):
    for name in ["jump_diffusion", "cramer_lundberg"]:
        model = catalog[name]
        sf = scale_cache.get(model, 0.05, x_max=3.0)
        prob = ExitProblem(A, B, 0.05, 1.0)
        val = overshoot_zero_extension(ONE, sf, prob)
        assert val.value == pytest.approx(z_form(sf, prob), abs=1e-6), name
        # same value through the general identity with the zero recipe
        p_zero = extend_penalty(ONE, A, B, "zero")
        vg = overshoot_functional_general(p_zero, sf, prob)
        assert vg.value == pytest.approx(val.value, abs=1e-9), name


def test_zero_extension_zero_penalty(catalog, scale_cache):
    zero = lambda y: 0.0
    sf = scale_cache.get(catalog["jump_diffusion"], 0.05, x_max=3.0)
    val = overshoot_zero_extension(zero, sf, ExitProblem(A, B, 0.05, 1.0))
    assert val.value == pytest.approx(0.0, abs=1e-12)


def test_zero_extension_example_formula(catalog, scale_cache):
    # explicit tail-mass form of the zero-extension identity for f = 1
    model = catalog["jump_diffusion"]
    sf = scale_cache.get(model, 0.05, x_max=3.0)
    prob = ExitProblem(A, B, 0.05, 1.0)
    tail = model.measure.tail

    def rhs_integrand(z):
        return float(tail(z - A)) * resolvent_density(sf, prob, z)

    v1, _ = quad(rhs_integrand, A, prob.x, epsabs=1e-11, epsrel=1e-9)
    v2, _ = quad(rhs_integrand, prob.x, B, epsabs=1e-11, epsrel=1e-9)
    creep = creeping_transform(sf, prob)
    explicit = v1 + v2 + 1.0 * creep
    val = overshoot_zero_extension(ONE, sf, prob)
    assert val.value == pytest.approx(explicit, abs=1e-7)


def test_extension_independence_sample(catalog, scale_cache):
    fe = lambda y: math.exp(y)
    for name in ["jump_diffusion", "tempered_stable"]:
        model = catalog[name]
        sf = scale_cache.get(model, 0.1, x_max=3.0)
        prob = ExitProblem(A, B, 0.1, 1.0)
        vals = []
        for rec in ["zero", "constant_one", "affine_at_a"]:
            p = extend_penalty(fe, A, B, rec)
            vals.append(overshoot_functional_general(p, sf, prob).value)
        assert max(vals) - min(vals) < 1e-6, name


def test_breakdown_sums_to_value(catalog, scale_cache):
    fe = lambda y: math.exp(y)
    model = catalog["jump_diffusion"]
    sf = scale_cache.get(model, 0.1, x_max=3.0)
    p = extend_penalty(fe, A, B, "zero")
    val = overshoot_functional_general(p, sf, ExitProblem(A, B, 0.1, 1.0))
    total = val.boundary_term + val.integral_term + val.creeping_term
    assert val.value == pytest.approx(total, rel=1e-12)
    assert val.terms["boundary_term"] == val.boundary_term
    assert val.accuracy >= 0.0


def test_value_at_upper_boundary(catalog, scale_cache):
    # x = b: the down-exit functional for f = 1 at q = 0 vanishes
    p1 = extend_penalty(ONE, A, B, "constant_one")
    for name, model in catalog.items():
        sf = scale_cache.get(model, 0.0)
        val = overshoot_functional_simple(p1, sf, ExitProblem(A, B, 0.0, B))
        assert abs(val.value) < 1e-9, name
        vq = overshoot_functional_simple(p1, scale_cache.get(model, 0.05),
                                         ExitProblem(A, B, 0.05, B))
        assert vq.value >= -1e-9, name


def test_boundary_start_unbounded_variation_exact(catalog, scale_cache):
    fe = lambda y: math.exp(y)
    for name in ["brownian", "jump_diffusion", "tempered_stable"]:
        model = catalog[name]
        sf = scale_cache.get(model, 0.05)
        p = extend_penalty(fe, A, B, "constant_one")
        got = boundary_start(p, sf, ExitProblem(A, B, 0.05, A))
        assert got == math.exp(A)              # exactly f(a)


def test_boundary_start_bounded_variation_formula(catalog, scale_cache):
    model = catalog["cramer_lundberg"]
    sf = scale_cache.get(model, 0.05, x_max=3.0)
    p1 = extend_penalty(ONE, A, B, "constant_one")
    got = boundary_start(p1, sf, ExitProblem(A, B, 0.05, A))
    # substitute x = a into the Z-identity
    want = 1.0 - sf.w0 * float(sf.z(B - A)) / float(sf.w(B - A))
    assert got == pytest.approx(want, abs=1e-9)


def test_boundary_start_requires_exact_a(catalog, scale_cache):
    p1 = extend_penalty(ONE, A, B, "constant_one")
    sf = scale_cache.get(catalog["cramer_lundberg"], 0.05)
    with pytest.raises(ModelError):
        boundary_start(p1, sf, ExitProblem(A, B, 0.05, A + 1e-9))
    with pytest.raises(ModelError):
        overshoot_functional_general(p1, sf, ExitProblem(A, B, 0.05, A))


def test_overshoot_of_scale_function_degeneracy(catalog):
    # p = q, delta = 0: same functional through two routes
    for name in ["brownian", "cramer_lundberg", "jump_diffusion"]:
        model = catalog[name]
        q = 0.05
        a, b, x = 0.5, 2.5, 1.5
        prob = ExitProblem(a, b, q, x)
        sf = ScaleFunction(model, q, x_max=b + 1.0)
        direct = overshoot_of_scale_function(model, 0.0, q, q, prob,
                                             sf_x=sf, sf_y=sf)
        p = extend_penalty(sf.w, a, b, ExtensionRecipe(kind="scale_function", scale=sf),
                           f_kinks=(0.0,))
        rep = check_membership(p, model)
        via_simple = overshoot_functional_simple(p, sf, prob, membership=rep)
        assert direct == pytest.approx(via_simple.value, abs=1e-8), name


def test_overshoot_of_scale_function_validation(catalog):
    model = catalog["jump_diffusion"]
    with pytest.raises(ModelError):
        overshoot_of_scale_function(model, 0.1, 0.05, 0.1,
                                    ExitProblem(-1.0, 2.0, 0.05, 0.5))
    with pytest.raises(ModelError):
        # prob.q must equal the killing rate of the passage
        overshoot_of_scale_function(model, 0.1, 0.05, 0.1,
                                    ExitProblem(0.0, 2.0, 0.3, 0.5))


def test_divergent_jump_tail_raises_hypothesis_violation(catalog, scale_cache):
    # f(y) = exp(-2y) grows faster below a than the exponential jumps decay
    from levyfluct import HypothesisViolationError

    f = lambda y: np.exp(-2.0 * y)
    sf = scale_cache.get(catalog["jump_diffusion"], 0.05, x_max=3.0)
    prob = ExitProblem(A, B, 0.05, 1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(HypothesisViolationError, match="z = "):
            overshoot_zero_extension(f, sf, prob)
        with pytest.raises(HypothesisViolationError, match="z = "):
            overshoot_functional_general(extend_penalty(f, A, B, "zero"), sf, prob)
        # the membership report records the divergent tail instead of raising
        rep = check_membership(extend_penalty(f, A, B, "zero"), catalog["jump_diffusion"])
    assert not rep.membership_ok


# ---------------------------------------------------------------------------
# overshoot of W as the general identity
# ---------------------------------------------------------------------------

OSF_CLOSED = ("brownian", "cramer_lundberg", "jump_diffusion")


def osf_scale_functions(model, delta, p_kill, q_inner, b):
    return (ScaleFunction(model, q_inner, x_max=b + 1.0),
            ScaleFunction(model.shifted(delta), p_kill, x_max=b + 1.0))


def osf(model, a, b, x, delta, p_kill, q_inner):
    sf_x, sf_y = osf_scale_functions(model, delta, p_kill, q_inner, b)
    return overshoot_of_scale_function(model, delta, p_kill, q_inner,
                                       ExitProblem(a, b, p_kill, x), sf_x=sf_x, sf_y=sf_y)


def osf_reference(sf_x, sf_y, delta, q_inner, prob):
    """The identity for the two interpolants: 12-point Gauss-Legendre on every
    cache piece of both, with the interpolant's exact derivative in K."""
    a, b, x = prob.a, prob.b, prob.x
    edges = np.unique(np.concatenate([[a, x, b], sf_x._anti_nodes,
                                      b - sf_y._anti_nodes, x - sf_y._anti_nodes]))
    edges = edges[(edges >= a) & (edges <= b)]
    nodes, weights = np.polynomial.legendre.leggauss(12)
    half = 0.5 * np.diff(edges)[:, None]
    z = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * nodes
    w_prime = np.exp(sf_x.phi * z) * (sf_x.phi * sf_x._interp(z) + sf_x._interp(z, 1))
    k = (q_inner - prob.q) * sf_x.w(z) - delta * w_prime
    ratio = sf_y.w(x - a) / sf_y.w(b - a)
    u = ratio * sf_y.w(b - z) - sf_y.w(x - z)
    return sf_x.w(x) - ratio * sf_x.w(b) + float(np.sum(k * u * half * weights))


@pytest.mark.parametrize("a, b, x, delta, p_kill, q_inner",
                         [(0.3, 1.0, 0.9, 0.2, 0.0, 0.3), (0.5, 2.5, 1.5, 0.1, 0.05, 0.1)])
def test_overshoot_of_w_matches_piecewise_reference(catalog, a, b, x, delta, p_kill, q_inner):
    model = catalog["tempered_stable"]
    sf_x, sf_y = osf_scale_functions(model, delta, p_kill, q_inner, b)
    prob = ExitProblem(a, b, p_kill, x)
    got = overshoot_of_scale_function(model, delta, p_kill, q_inner, prob, sf_x=sf_x, sf_y=sf_y)
    assert abs(got - osf_reference(sf_x, sf_y, delta, q_inner, prob)) <= 5e-8


@pytest.mark.parametrize("x", [1.0, 1.9])
def test_overshoot_of_w_vanishes_at_level_zero(catalog, x):
    # Y ends at or below 0 = a, where W^(q) vanishes (it is W(0) = 0 for the
    # unbounded-variation fixtures; the bounded-variation one never creeps)
    assert abs(osf(catalog["tempered_stable"], 0.0, 2.0, x, 0.1, 0.05, 0.1)) <= 2e-8
    for name in OSF_CLOSED:
        assert abs(osf(catalog[name], 0.0, 2.0, x, 0.1, 0.05, 0.1)) <= 1e-13, name


def test_overshoot_of_w_start_at_a(catalog):
    got = osf(catalog["cramer_lundberg"], 0.5, 2.5, 0.5, 0.1, 0.05, 0.1)
    assert got == pytest.approx(0.15866666654909456, rel=1e-13)
    got = osf(catalog["tempered_stable"], 0.5, 2.5, 0.5, 0.1, 0.05, 0.1)
    assert got == pytest.approx(2.816799297522082, abs=5e-8)


@pytest.mark.parametrize("name, point, expected", [
    ("brownian", (0.5, 2.5, 1.5, 0.1, 0.05, 0.1), 0.36157985040145446),
    ("cramer_lundberg", (0.5, 2.5, 1.5, 0.1, 0.05, 0.1), 0.06825191033982758),
    ("jump_diffusion", (0.5, 2.5, 1.5, 0.1, 0.05, 0.1), 0.8586543649061875),
    ("brownian", (0.3, 1.0, 0.9, 0.2, 0.0, 0.3), 0.07792426068982938),
    ("cramer_lundberg", (0.3, 1.0, 0.9, 0.2, 0.0, 0.3), 0.008695837824354236),
    ("jump_diffusion", (0.3, 1.0, 0.9, 0.2, 0.0, 0.3), 0.17860877398938513),
])
def test_overshoot_of_w_closed_forms_keep_their_values(catalog, name, point, expected):
    assert osf(catalog[name], *point) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("name", ["jump_diffusion", "tempered_stable"])
def test_overshoot_of_w_makes_no_scalar_quad_call(catalog, monkeypatch, name):
    model = catalog[name]
    sf_x, sf_y = osf_scale_functions(model, 0.1, 0.05, 0.1, 2.0)

    def refuse(*args, **kwargs):
        raise AssertionError("scalar QUADPACK call")

    monkeypatch.setattr("scipy.integrate.quad", refuse)
    value = overshoot_of_scale_function(model, 0.1, 0.05, 0.1, ExitProblem(0.0, 2.0, 0.05, 1.0),
                                        sf_x=sf_x, sf_y=sf_y)
    assert math.isfinite(value)


def test_overshoot_of_w_rejects_mismatched_scale_functions(catalog):
    model, other = catalog["jump_diffusion"], catalog["brownian"]
    prob = ExitProblem(0.0, 2.0, 0.05, 1.0)
    sf_x, sf_y = osf_scale_functions(model, 0.1, 0.05, 0.1, 2.0)
    wrong = {
        "sf_x at the killing rate": dict(sf_x=ScaleFunction(model, 0.05, x_max=3.0), sf_y=sf_y),
        "sf_x of another model": dict(sf_x=ScaleFunction(other, 0.1, x_max=3.0), sf_y=sf_y),
        "sf_y at the inner rate": dict(sf_x=sf_x,
                                       sf_y=ScaleFunction(model.shifted(0.1), 0.1, x_max=3.0)),
        "sf_y of the unshifted model": dict(sf_x=sf_x, sf_y=ScaleFunction(model, 0.05, x_max=3.0)),
    }
    for label, kwargs in wrong.items():
        with pytest.raises(ModelError):
            overshoot_of_scale_function(model, 0.1, 0.05, 0.1, prob, **kwargs)
            pytest.fail(label)
    assert math.isfinite(overshoot_of_scale_function(model, 0.1, 0.05, 0.1, prob,
                                                     sf_x=sf_x, sf_y=sf_y))
    for delta, p_kill, q_inner in [(math.nan, 0.05, 0.1), (math.inf, 0.05, 0.1),
                                   (0.1, 0.05, math.nan), (0.1, 0.05, math.inf)]:
        with pytest.raises(ModelError):
            overshoot_of_scale_function(model, delta, p_kill, q_inner, prob)
    with pytest.raises(ModelError):
        overshoot_of_scale_function(model, 0.1, math.nan, 0.1, ExitProblem(0.0, 2.0, 0.05, 1.0))


from levyfluct.models import tempered_stable_process

OSF_TEMPERED_POINTS = [(0.0, 2.0, 1.0, 0.1, 0.05, 0.1), (0.0, 2.0, 1.9, 0.1, 0.05, 0.1),
                       (0.5, 2.5, 1.5, 0.1, 0.05, 0.1), (0.3, 1.0, 0.9, 0.2, 0.0, 0.3)]


@pytest.mark.parametrize("a, b, x, delta, p_kill, q_inner", OSF_TEMPERED_POINTS)
def test_overshoot_of_w_within_1e9_of_piecewise_reference(catalog, a, b, x, delta, p_kill,
                                                          q_inner):
    model = catalog["tempered_stable"]
    sf_x, sf_y = osf_scale_functions(model, delta, p_kill, q_inner, b)
    prob = ExitProblem(a, b, p_kill, x)
    got = overshoot_of_scale_function(model, delta, p_kill, q_inner, prob, sf_x=sf_x, sf_y=sf_y)
    assert abs(got - osf_reference(sf_x, sf_y, delta, q_inner, prob)) <= 1e-9


@pytest.mark.parametrize("x", [1.0, 1.9])
def test_overshoot_of_w_at_level_zero_within_1e9(catalog, x):
    assert abs(osf(catalog["tempered_stable"], 0.0, 2.0, x, 0.1, 0.05, 0.1)) <= 1e-9


def osf_sweep_cases(n=120, seed=8):
    """Seeded (model, a, b, x, delta, p, q): a = 0 in about a quarter of the cases
    (exact value 0) and x = a in about a fifth; the first is the bounded-variation
    model at a = x = 0."""
    rng = np.random.default_rng(seed)
    names = ("tempered_stable", "bounded_variation", "jump_diffusion")
    cases = [("bounded_variation", 0.0, 2.0, 0.0, 0.1, 0.05, 0.1)]
    for i in range(n - 1):
        a = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0))
        b = a + float(rng.uniform(0.5, 2.5))
        x = a if rng.random() < 0.2 else float(rng.uniform(a, b))
        cases.append((names[i % 3], a, b, x, float(rng.uniform(0.0, 0.3)),
                      float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))))
    return cases


def test_overshoot_of_w_sweep_at_the_default_tolerance(catalog):
    # every row passes quad_rows' default error check; where a = 0 the exact
    # value is 0 (Y never ends at a level where W^(q) is positive), and the
    # worst such case, bounded variation on the short interval b = 0.54, reads 1.4e-6
    models = {"tempered_stable": catalog["tempered_stable"],
              "jump_diffusion": catalog["jump_diffusion"],
              "bounded_variation": tempered_stable_process(alpha=0.6)}
    for case in osf_sweep_cases():
        name, a, b, x, delta, p_kill, q_inner = case
        got = osf(models[name], a, b, x, delta, p_kill, q_inner)
        assert math.isfinite(got), case
        if a == 0.0:
            assert abs(got) <= 1e-5, case


@pytest.mark.parametrize("x", [0.3, 1.2, 1.9])
def test_tempered_general_identity_takes_at_most_four_generator_calls(catalog, monkeypatch, x):
    # both ends of each resolvent row are graded, so the outer integral
    # converges without a run of bisections
    from levyfluct import generator

    model = catalog["tempered_stable"]
    sf = ScaleFunction(model, 0.05)
    penalty = extend_penalty(np.exp, A, B, "constant_one")
    calls = []
    apply = generator.apply_generator

    def counted(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(generator, "apply_generator", counted)
    value = overshoot_functional_general(penalty, sf, ExitProblem(A, B, 0.05, x))
    assert 1 <= len(calls) <= 4
    assert math.isfinite(value.value) and value.accuracy <= 1e-9


def test_repeated_overshoot_of_w_reuses_its_scale_function_builds(catalog, monkeypatch):
    # without sf_x and sf_y the first call builds both (no other test builds for b = 2.2),
    # the second inverts no cache grid and returns the same float
    args = (catalog["tempered_stable"], 0.1, 0.05, 0.1, ExitProblem(0.0, 2.2, 0.05, 1.0))
    sizes = []
    invert = scale._tilted_inverse

    def counted(model, q, phi, x):
        sizes.append(np.size(x))
        return invert(model, q, phi, x)

    monkeypatch.setattr(scale, "_tilted_inverse", counted)
    first = overshoot_of_scale_function(*args)
    assert sizes.count(scale.GRID_NODES) == 2
    sizes.clear()
    assert overshoot_of_scale_function(*args) == first
    assert scale.GRID_NODES not in sizes


def test_general_identity_checks_membership_once_across_starts(catalog, scale_cache,
                                                               monkeypatch):
    built = []

    def counting(penalty, model, _build=generator._membership_report):
        built.append(model)
        return _build(penalty, model)

    monkeypatch.setattr(generator, "_membership_report", counting)
    model = catalog["cramer_lundberg"]
    sf = scale_cache.get(model, 0.05)
    p = extend_penalty(np.exp, A, B, "constant_one")
    for x in (0.5, 1.0, 1.5):
        overshoot_functional_general(p, sf, ExitProblem(A, B, 0.05, x))
    assert built == [model]
