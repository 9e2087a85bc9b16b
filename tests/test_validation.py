"""Argument checks of the public functions: each bad argument raises before any work."""

import pytest

from levyfluct import (ExitProblem, ExtensionRecipe, ModelError, ScaleFunction, SimScheme,
                       brownian_motion, creeping_transform, extend_penalty,
                       overshoot_functional_general, overshoot_zero_extension,
                       right_inverse_phi, table_jumps, tempered_stable_jumps,
                       transform_roundtrip)

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
