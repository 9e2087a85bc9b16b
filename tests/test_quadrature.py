"""The batched Gauss-Kronrod rule: its constants, maps, row independence and failure rule."""

import math

import numpy as np
import pytest
from scipy import special

from levyfluct import NumericalAccuracyError
from levyfluct import quadrature as qd
from levyfluct.quadrature import LOG, PLAIN, SQRT, TAIL, check_rows, quad_rows


def test_kronrod_and_gauss_weights_are_exact_to_their_degree():
    for d in range(32):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert np.sum(qd._KRONROD * qd._NODES ** d) == pytest.approx(exact, abs=1e-14)
        if d < 20:
            assert np.sum(qd._GAUSS * qd._NODES ** d) == pytest.approx(exact, abs=1e-14)


def test_rows_match_closed_forms_under_every_map():
    z = (-1.0 + 3.0j)
    cases = [
        (PLAIN, 0.0, 2.0, lambda t: np.exp(-t) * np.cos(3.0 * t),
         ((np.exp(2.0 * z) - 1.0) / z).real),
        (SQRT, 0.0, 1.0, lambda t: 1.0 / np.sqrt(t) + np.cos(t), 2.0 + math.sin(1.0)),
        (LOG, 1e-9, 1.0, lambda t: t ** -0.5 * np.exp(-t),
         math.gamma(0.5) * (special.gammainc(0.5, 1.0) - special.gammainc(0.5, 1e-9))),
        (TAIL, 1.0, np.inf, lambda t: np.exp(-1.5 * t) * t,
         math.exp(-1.5) * (1.0 / 1.5 + 1.0 / 1.5 ** 2)),
    ]
    funcs = [c[3] for c in cases]
    vals, errs = quad_rows(lambda r, t: np.choose(r, [g(t) for g in funcs]),
                           [c[1] for c in cases], [c[2] for c in cases],
                           maps=[c[0] for c in cases])
    for (kind, lo, hi, g, want), v, e in zip(cases, vals, errs):
        assert v == pytest.approx(want, rel=1e-12), kind
        assert e <= max(1e-12, 1e-10 * abs(v)), kind


def test_break_points_within_a_row():
    # |t - 0.3| has a kink; as a break point of a single row it is exact
    vals, _ = quad_rows(lambda r, t: np.abs(t - 0.3), [0.0, 0.3], [0.3, 1.0], rows=[0, 0])
    assert vals.shape == (1,)
    assert vals[0] == pytest.approx(0.5 * 0.09 + 0.5 * 0.49, rel=1e-14)


def test_row_subdivision_does_not_depend_on_its_batch():
    def g(r, t):
        return np.sin(40.0 * t * (1 + r)) / np.sqrt(t) + r * np.exp(-t)

    alone, alone_err = quad_rows(g, [0.0], [1.0], maps=SQRT)
    batch, batch_err = quad_rows(lambda r, t: g(np.where(r == 3, 0, r + 1), t),
                                 np.zeros(4), np.ones(4), maps=SQRT)
    assert batch[3] == alone[0] and batch_err[3] == alone_err[0]


def test_evaluation_passes_stay_within_the_cell_budget(monkeypatch):
    monkeypatch.setattr(qd, "CELLS", 21 * 10)
    sizes = []

    def g(r, t):
        sizes.append(t.size)
        return np.exp(-t * (1.0 + r))

    vals, _ = quad_rows(g, np.zeros(57), np.ones(57))
    assert max(sizes) <= 21 * 10
    np.testing.assert_allclose(vals, -np.expm1(-(1.0 + np.arange(57))) / (1.0 + np.arange(57)),
                               rtol=1e-14)


def test_failure_rule_per_row():
    def g(r, t):
        # row 1 hits a pole at the centre node
        with np.errstate(divide="ignore"):
            return np.where(r == 1, 1.0 / (t - 0.5), t)

    with pytest.raises(NumericalAccuracyError, match="row 1"):
        quad_rows(g, [0.0, 0.0], [1.0, 1.0])
    vals, errs = quad_rows(g, [0.0, 0.0], [1.0, 1.0], panel_tol=None)
    assert vals[0] == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(NumericalAccuracyError, match="at 2.5"):
        check_rows(np.array([1.0, math.nan]), np.zeros(2), where=np.array([1.5, 2.5]))
    with pytest.raises(NumericalAccuracyError):
        check_rows(np.array([1.0]), np.array([2e-6]))
    check_rows(np.array([1.0]), np.array([0.9e-6]))
    check_rows(np.array([1.0]), np.array([1.0]), math.inf)


def test_empty_intervals_add_exact_zeros():
    vals, errs = quad_rows(lambda r, t: t, [0.0, 1.0], [1.0, 1.0], maps=[SQRT, PLAIN])
    assert vals[1] == 0.0 and errs[1] == 0.0
    assert vals[0] == pytest.approx(0.5, rel=1e-14)
