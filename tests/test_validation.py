"""Argument checks of the public functions: each bad argument raises before any
work; and the rarer branches of the package, one case each."""

import dataclasses
import math

import numpy as np
import pytest

from levyfluct import (ConditionNotMetError, ExitProblem, ExtensionRecipe, LevyTriplet,
                       ModelError, ScaleFunction, SimScheme, brownian_motion,
                       compile_expression, creeping_transform, exponential_jumps,
                       extend_penalty, overshoot_functional_general,
                       overshoot_functional_simple, overshoot_zero_extension,
                       right_inverse_phi, simulate_first_passage, table_jumps,
                       tempered_stable_jumps, tempered_stable_process, transform_roundtrip)
from levyfluct.quadrature import quad

ONE = lambda y: 1.0
Q = 0.05
AT_A = ExitProblem(0.0, 2.0, Q, 0.0)
SF = ScaleFunction(brownian_motion(), Q)


@pytest.mark.parametrize("call, error, match", [
    (lambda: extend_penalty(ONE, 1.0, 1.0, "zero"), ModelError, "need a < b"),
    (lambda: extend_penalty(ONE, 0.0, 2.0, ExtensionRecipe(kind="scale_function")),
     ModelError, "needs a ScaleFunction"),
    (lambda: creeping_transform(SF, AT_A), ModelError, "a < x <= b"),
    (lambda: overshoot_zero_extension(ONE, SF, AT_A), ModelError, "a < x <= b"),
    (lambda: overshoot_functional_general(extend_penalty(ONE, 0.0, 1.0, "zero"), SF,
                                          ExitProblem(0.0, 2.0, Q, 1.0)),
     ModelError, "different intervals"),
    (lambda: SimScheme(horizon=0.0), ModelError, "horizon must be finite and positive"),
    (lambda: tempered_stable_jumps(0.1, 1.0, 1.0), ModelError, "alpha must lie in"),
    (lambda: tempered_stable_jumps(0.0, 0.5, 1.0), ModelError, "c and rho must be positive"),
    (lambda: table_jumps([1.0], [1.0]), ModelError, ">= 2 points"),
    (lambda: right_inverse_phi(brownian_motion(), -0.1), ModelError, "q must be nonnegative"),
    (lambda: ScaleFunction(brownian_motion(), Q, method="bogus"), ModelError,
     "unknown scale-function method 'bogus'"),
    (lambda: transform_roundtrip(SF, SF.phi), ValueError, "only converges for lam > Phi"),
], ids=["penalty_a_equals_b", "scale_recipe_without_scale", "creeping_at_a",
        "zero_extension_at_a", "penalty_on_another_interval", "zero_horizon",
        "tempered_alpha_one", "tempered_c_zero", "one_point_table", "negative_q_phi",
        "unknown_method", "roundtrip_at_phi"])
def test_invalid_arguments_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


EXP = exponential_jumps(0.8, 1.5)


def raises(error, match):
    def check(call):
        with pytest.raises(error, match=match):
            call()
    return check


def equals(want):
    """``call()`` matches ``want()`` to 1e-12, relative."""
    return lambda call: np.testing.assert_allclose(call(), want(), rtol=1e-12, atol=0.0)


def simple_with_scale_function_extension():
    # f = 0 against W(a) > 0: no Corollary condition, and the report says why
    model = tempered_stable_process()
    sf = ScaleFunction(model, Q)
    penalty = extend_penalty(lambda y: 0.0 * np.asarray(y), 0.5, 2.5,
                             ExtensionRecipe(kind="scale_function", scale=sf))
    return overshoot_functional_simple(penalty, sf, ExitProblem(0.5, 2.5, Q, 1.5))


@pytest.mark.parametrize("call, check", [
    (lambda: ScaleFunction(tempered_stable_process(), Q, method="closed_form"),
     raises(ModelError, "no closed form for measure family 'tempered_stable'")),
    (lambda: dataclasses.replace(EXP, tail=lambda t: np.asarray(t, dtype=float)),
     raises(ModelError, "not non-increasing")),
    (lambda: dataclasses.replace(EXP, tail=lambda t: np.where(
        np.asarray(t) > 0, 0.8 * np.exp(-1.5 * np.asarray(t, dtype=float)), np.inf)),
     raises(ModelError, "total mass is infinite")),
    (lambda: dataclasses.replace(EXP, total_mass_near_zero=1e13),
     raises(ModelError, "exceeds the admissibility bound")),
    (lambda: simulate_first_passage(
        LevyTriplet(0.3, 0.6, dataclasses.replace(EXP, family="custom")), 0.0, 2.0, 1.0,
        SimScheme(dt=4e-3, seed=1, horizon=4.0), 10, Q),
     raises(ModelError, "no jump sampler for measure family 'custom'")),
    (lambda: compile_expression("+y")(np.array([-1.5, 2.0])), equals(lambda: [-1.5, 2.0])),
    (lambda: EXP.mass2_below(0.5),
     equals(lambda: quad(lambda t: t * t * EXP.density(t), 0.0, 0.5)[0])),
    (lambda: quad(math.exp, 1.0, 1.0), equals(lambda: [0.0, 0.0])),
    (simple_with_scale_function_extension,
     raises(ConditionNotMetError, "membership analytically unverified")),
], ids=["closed_form_of_tempered", "increasing_tail", "infinite_finite_activity_mass",
        "inadmissible_mass", "simulate_custom_measure", "unary_plus", "exponential_mass2_below",
        "empty_quad", "simple_scale_function_unverified"])
def test_rare_branches(call, check):
    check(call)
