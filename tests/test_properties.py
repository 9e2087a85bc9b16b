"""Property tests on the closed-form families: Brownian motion, jump diffusion
and Cramer-Lundberg, with parameters drawn by Hypothesis."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levyfluct import (NumericalAccuracyError, RootFindingError, ScaleFunction,
                       brownian_motion, cramer_lundberg, jump_diffusion, laplace_exponent,
                       laplace_exponent_derivative, mass_balance_gap, right_inverse_phi)
from levyfluct.identities import ExitProblem

# drawn examples are fixed, so that a run passes or fails as the last one did
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

MODELS = st.one_of(
    st.builds(brownian_motion, st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
    st.builds(jump_diffusion, st.floats(-2.0, 2.0), st.floats(0.05, 2.0),
              st.floats(0.01, 3.0), st.floats(0.2, 5.0)),
    st.builds(cramer_lundberg, st.floats(0.1, 5.0), st.floats(0.01, 3.0),
              st.floats(0.2, 5.0)))
RATES = st.floats(0.0, 3.0)


def closed_form(model, q):
    """The closed-form ``ScaleFunction``.  A draw whose build raises a typed
    error is rejected: Phi(q) past the root finder's reach (a negative drift
    of 1e-110 at q = 0) or a repeated root of psi - q, which the partial
    fractions refuse."""
    try:
        return ScaleFunction(model, q)
    except (NumericalAccuracyError, RootFindingError):
        assume(False)


@PROPERTY
@given(MODELS)
def test_psi_is_convex(model):
    psi = laplace_exponent(model, np.linspace(0.0, 20.0, 81))
    second = psi[2:] - 2.0 * psi[1:-1] + psi[:-2]
    assert np.all(second >= -1e-12 * np.maximum(1.0, np.abs(psi[1:-1])))


@PROPERTY
@given(st.one_of(MODELS, st.builds(brownian_motion, st.floats(-1e3, 1e3),
                                   st.floats(1e-3, 10.0))), st.floats(0.0, 1e3))
# brentq stopped at 0, where psi'(0) = 1e-300, and the Newton polish left 0.25
@example(brownian_motion(1e-300, 1.0), 1e-300)
# the negative dip of psi lies below 2e-109, past the search's 80 halvings
@example(brownian_motion(-1e-109, 1.0), 0.0)
def test_phi_meets_its_residual_or_raises(model, q):
    try:
        phi = right_inverse_phi(model, q)
    except RootFindingError:
        return
    # the bound right_inverse_phi states: psi's rounding scale where it is steep
    scale = max(1.0, q, phi * laplace_exponent_derivative(model, phi))
    assert abs(laplace_exponent(model, phi) - q) <= 1e-12 * scale


@PROPERTY
@given(MODELS, RATES, st.floats(0.1, 5.0))
def test_w_is_nondecreasing_from_w0(model, q, b):
    sf = closed_form(model, q)
    assume(sf.phi * b <= 200.0)      # W^(q)(b) ~ e^{Phi b} stays finite
    w = sf.w(np.linspace(0.0, b, 64))
    assert w[0] == sf.w0
    assert np.all(np.diff(w) >= -1e-12 * np.max(w))


@PROPERTY
@given(MODELS, RATES, st.floats(0.3, 5.0), st.floats(0.02, 0.98))
# W's closed form has the root -776 here: e^{r c} underflowed where expm1(-r y)
# overflowed, and the quadrature stopped at a NaN error estimate
@example(brownian_motion(1.0, 0.05078125), 0.0, 1.0, 0.5)
# a root of -1552 at q = 1: the nodes missed the layer of W(b - z) at z = b,
# and the gap read 3.6e-5 against a quadrature error estimate of 5.7e-11
@example(brownian_motion(2.0, 0.05078125), 1.0, 5.0, 0.125)
def test_mass_balance(model, q, b, frac):
    # acceptance criterion 6's bound, where Phi(q) b <= 10: past it W(b - z)
    # spans more than e^10 over the row, and the resolvent quadrature can stop
    # short of 1e-6 or raise NumericalAccuracyError
    sf = closed_form(model, q)
    assume(sf.phi * b <= 10.0)
    assert mass_balance_gap(sf, ExitProblem(0.0, b, q, frac * b)) <= 1e-6
