"""Table jump measures: closed-form integrals against mpmath, properties, no QUADPACK."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levyfluct.models import (LevyTriplet, laplace_exponent, laplace_exponent_derivative,
                              right_inverse_phi, table_jumps)
from levyfluct.montecarlo import SimScheme, simulate_first_passage
from levyfluct.scale import ScaleFunction

mp = pytest.importorskip("mpmath")

GEO = np.geomspace(0.05, 8.0, 40)
TABLES = {
    "cli": ([0.05, 0.5, 1.0, 3.0, 8.0], [0.7, 0.4, 0.25, 0.05, 0.001]),
    "near_flat": ([0.1, 1.0, 2.0], [0.7, 0.7000001, 0.2]),
    "geometric": (GEO, 0.7 * np.exp(-1.2 * GEO)),
    # falls to zero at 2.5: log-slope -1382, far from the origin
    "steep": ([1.0, 2.0, 2.5], [1.0, 1.0, 0.0]),
}


class MpTable:
    """The log-linear density of a table in mpmath, integrated segment by segment."""

    def __init__(self, theta, values):
        mp.mp.dps = 40
        self.theta = [mp.mpf(float(t)) for t in theta]
        # zero samples are 1e-300, as in table_jumps
        self.logv = [mp.log(max(mp.mpf(float(v)), mp.mpf(1e-300))) for v in values]

    def integral(self, g, lo=0, hi=mp.inf):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        total = mp.mpf(0)
        for i in range(len(self.theta) - 1):
            u, v = self.theta[i], self.theta[i + 1]
            s, t = max(lo, u), min(hi, v)
            if t <= s:
                continue
            b = (self.logv[i + 1] - self.logv[i]) / (v - u)
            # pieces over which the density changes by at most e^10
            ends = sorted(set(mp.linspace(s, t, int(abs(b) * (t - s) / 10) + 2))
                          | ({mp.mpf(1)} if s < 1 < t else set()))
            # the density at s comes out of the integral: mpmath's quad judges
            # its error in absolute terms
            total += mp.exp(self.logv[i] + b * (s - u)) * mp.quad(
                lambda x: g(x) * mp.exp(b * (x - s)), ends)
        return total


def close(got, ref, rel=1e-13):
    return abs(got - ref) <= rel * abs(ref)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_closed_forms_match_mpmath(name):
    theta, values = TABLES[name]
    meas, ref = table_jumps(theta, values), MpTable(theta, values)
    top = float(theta[-1])
    points = [0.0, float(theta[0]), 0.3, 1.0, 0.5 * (1.0 + top), top - 1e-3]
    tails = meas.tail(np.array(points))
    for t, got in zip(points, tails):
        assert close(got, ref.integral(lambda x: 1, t)), ("tail", t)
        assert got == meas.tail(t)
    assert meas.tail(top) == 0.0 and meas.tail(2.0 * top) == 0.0
    for lo, hi in [(0.0, 1.0), (0.2, 0.9), (0.07, top), (1.0, top)]:
        assert close(meas.mass_between(lo, hi), ref.integral(lambda x: x, lo, hi)), (lo, hi)
    assert meas.mass_between(0.9, 0.2) == 0.0
    for eps in [0.06, 0.4, 1.0, top]:
        assert close(meas.mass2_below(eps), ref.integral(lambda x: x * x, 0, eps)), eps
    assert close(meas.mean_small, ref.integral(lambda x: x, 0, 1))
    assert close(meas.mean_above_one, ref.integral(lambda x: x, 1))
    assert close(meas.total_mass_near_zero, ref.integral(lambda x: x * x, 0, 1))
    for lam in [0.3, 2.0, 9.0]:
        lam_mp = mp.mpf(lam)
        deriv = ref.integral(lambda x: -x * mp.exp(-lam_mp * x) + (x if x <= 1 else 0))
        assert close(meas.exponent_jump_deriv(lam), deriv), ("deriv", lam)
        part = ref.integral(lambda x: mp.exp(-lam_mp * x) - 1 + (lam_mp * x if x <= 1 else 0))
        assert close(meas.exponent_jump_part(lam), part), ("psi", lam)
    lams = np.array([0.3, 2.0, 9.0])
    np.testing.assert_array_equal(meas.exponent_jump_deriv(lams),
                                  [meas.exponent_jump_deriv(v) for v in lams])


def test_near_flat_table_psi_matches_mpmath():
    # log-slope 1.6e-7 on the first segment: the antiderivative of t e^{b t} divides by b^2
    theta, values = TABLES["near_flat"]
    model = LevyTriplet(gamma=0.5, sigma=0.0, measure=table_jumps(theta, values))
    ref = MpTable(theta, values)
    for lam in [0.5, 2.0]:
        lam_mp = mp.mpf(lam)
        exact = lam_mp / 2 + ref.integral(
            lambda x: mp.exp(-lam_mp * x) - 1 + (lam_mp * x if x <= 1 else 0))
        assert close(laplace_exponent(model, lam), exact), lam


@st.composite
def tables(draw):
    n = draw(st.integers(2, 8))
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    theta = draw(st.floats(0.02, 1.5)) + np.concatenate([[0.0], np.cumsum(steps)])
    values = [draw(st.floats(0.01, 3.0))]
    for _ in range(n - 1):
        # about one segment in three is near flat
        if draw(st.integers(0, 2)) == 0:
            values.append(values[-1] * (1.0 + draw(st.floats(-1e-7, 1e-7))))
        else:
            values.append(draw(st.floats(0.0, 3.0)))
    if not any(values):
        values[0] = 1.0
    return theta, np.array(values)


@settings(max_examples=60, deadline=None)
@given(tables(), st.floats(0.01, 5.0))
# a rise of log-slope 691 onto the last sample: the tail must stay flat there
@example((np.array([1.0, 2.0, 3.0]), np.array([0.125, 0.0, 1.0])), 1.0)
def test_table_measure_properties(table, q):
    theta, values = table
    meas = table_jumps(theta, values)
    grid = np.linspace(0.0, theta[-1] * 1.1, 301)
    tails = meas.tail(grid)
    assert np.all(np.diff(tails) <= 1e-13 * tails[0])
    # int_lo^hi theta Pi(dtheta) lies between lo and hi times Pi(lo, hi) = tail(lo)
    for lo, hi in [(theta[0], theta[-1]), (0.5 * (theta[0] + theta[1]), theta[-1])]:
        mass, first = meas.tail(lo), meas.mass_between(lo, hi)
        assert lo * mass * (1 - 1e-12) <= first <= hi * mass * (1 + 1e-12)
    mid = 0.5 * (theta[0] + theta[-1])
    assert math.isclose(meas.mass_between(0.0, theta[-1]),
                        meas.mass_between(0.0, mid) + meas.mass_between(mid, theta[-1]),
                        rel_tol=1e-13)
    model = LevyTriplet(gamma=1.0, sigma=0.0, measure=meas)
    for lam in [0.2, 1.0, 4.0]:
        h = 1e-5 * lam
        fd = (laplace_exponent(model, lam + h) - laplace_exponent(model, lam - h)) / (2 * h)
        assert laplace_exponent_derivative(model, lam) == pytest.approx(fd, rel=1e-7, abs=1e-9)
    phi = right_inverse_phi(model, q)
    assert abs(laplace_exponent(model, phi) - q) <= 1e-12 * max(1.0, q)


def test_table_model_makes_no_scalar_quad_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar QUADPACK call")

    monkeypatch.setattr("scipy.integrate.quad", refuse)
    theta, values = TABLES["cli"]
    model = LevyTriplet(gamma=1.0, sigma=0.0, measure=table_jumps(theta, values))
    phi = right_inverse_phi(model, 0.05)
    sf = ScaleFunction(model, 0.05, x_max=3.0)
    assert sf.phi == phi and np.all(np.diff(sf.w(np.linspace(0.1, 2.9, 8))) > 0)
    assert math.isfinite(sf.z(4.0))
    samples = simulate_first_passage(model, 0.0, 2.0, 1.0, SimScheme(dt=4e-3, horizon=5.0), 200)
    assert samples.n_paths == 200 and np.any(samples.sides != 0)
