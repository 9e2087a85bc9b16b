"""Simulation engine: first passage, reflection, refraction, determinism."""

import math
import os
import re
import warnings

import numpy as np
import pytest

from levyfluct import montecarlo as mc
from levyfluct import (ExitProblem, ModelError, ScaleFunction, brownian_motion,
                       creeping_transform, estimate_creeping, estimate_exit_transform,
                       estimate_overshoot_functional, estimate_resolvent,
                       model_from_dict, resolvent_density, simulate_first_passage,
                       simulate_reflected, simulate_refracted, two_sided_exit_up)
from levyfluct.models import LevyTriplet, no_jumps
from levyfluct.montecarlo import CAPPED, DOWN, UP, SimScheme, thread_count

ONE = lambda y: np.ones_like(np.asarray(y, dtype=float))
A, B, X0 = 0.0, 2.0, 1.0


def test_pure_drift_exits_deterministically():
    gamma = 0.8
    model = LevyTriplet(gamma=gamma, sigma=0.0, measure=no_jumps())
    scheme = SimScheme(dt=1e-3, seed=1, horizon=10.0)
    s = simulate_first_passage(model, A, B, X0, scheme, 64, q=0.0)
    assert np.all(s.sides == UP)
    assert np.all(s.positions == B)
    assert np.allclose(s.times, (B - X0) / gamma, atol=1e-12)


def test_brownian_negative_drift_creeps_to_level():
    model = brownian_motion(drift=-0.4, sigma=0.8)
    scheme = SimScheme(dt=1e-3, seed=2, horizon=200.0)
    s = simulate_first_passage(model, A, 60.0, X0, scheme, 2000, q=0.0)
    down = s.sides == DOWN
    assert np.mean(down) > 0.99
    assert np.all(s.positions[down] == A)
    assert np.all(s.creep[down])


def test_cl_overshoot_is_memoryless(catalog):
    # overshoot below a of exponential claims is Exp(rho) exactly; the KS gate
    # is validated against an independent direct sampler of the same size
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=42, horizon=400.0)
    s = simulate_first_passage(model, A, B, 0.4, scheme, 280_000, q=0.0)
    overs = A - s.positions[s.sides == DOWN]
    assert overs.size > 100_000
    ks = np.max(np.abs(np.sort(1.0 - np.exp(-overs))
                       - np.arange(1, overs.size + 1) / overs.size))
    assert ks < 0.01
    direct = np.random.default_rng(7).exponential(1.0, overs.size)
    ks_direct = np.max(np.abs(np.sort(1.0 - np.exp(-direct))
                              - np.arange(1, direct.size + 1) / direct.size))
    assert ks_direct < 0.01


def test_exit_complement_and_boundary_positions(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=42, horizon=400.0)
    s = simulate_first_passage(model, A, B, X0, scheme, 30_000, q=0.0)
    up = float(np.mean(s.sides == UP))
    down = float(np.mean(s.sides == DOWN))
    capped = float(np.mean(s.sides == CAPPED))
    assert up + down + capped == pytest.approx(1.0)
    assert np.all(s.positions[s.sides == UP] == B)
    # sigma = 0: every down exit is a strict undershoot by a jump
    assert np.all(s.positions[s.sides == DOWN] < A)
    assert int(s.creep.sum()) == 0


def test_zero_penalty_estimate(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=3)
    zero = lambda y: np.zeros_like(np.asarray(y, dtype=float))
    est = estimate_overshoot_functional(model, zero, A, B, 0.05, X0, scheme, 5000)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_functional_matches_formula_cheap_fixture(catalog, scale_cache):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=5)
    est = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0, scheme, 40_000)
    sf = scale_cache.get(model, 0.05)
    exact = float(sf.z(X0) - sf.w(X0) * sf.z(B) / sf.w(B))
    assert abs(est.mean - exact) < 3.0 * est.stderr


def test_scheme_halving_stability(catalog):
    # weak-convergence sanity: refining dt does not move the estimate by more
    # than one standard error (frozen seeds; the gate is stochastic in nature)
    model = catalog["brownian"]
    coarse = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0,
                                           SimScheme(dt=2e-3, seed=3), 20_000)
    fine = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0,
                                         SimScheme(dt=1e-3, seed=103), 20_000)
    assert abs(coarse.mean - fine.mean) < coarse.stderr


def test_scheme_halving_stability_truncation(catalog):
    # halving dt and the small-jump threshold together (infinite activity)
    model = catalog["tempered_stable"]
    coarse = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0,
                                           SimScheme(dt=2e-3, eps=1e-3, seed=20),
                                           6000)
    fine = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0,
                                         SimScheme(dt=1e-3, eps=5e-4, seed=120),
                                         6000)
    assert abs(coarse.mean - fine.mean) < coarse.stderr


def test_reflected_far_barrier_degenerates_to_plain(catalog):
    # bridge corrections off so both kernels draw the same variates
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=8, horizon=50.0, bridge=False)
    plain = simulate_first_passage(model, A, 10_000.0, X0, scheme, 4000, q=0.0)
    refl = simulate_reflected(model, 10_000.0, A, X0, scheme, 4000, q=0.0)
    assert np.all(refl.xi_discounted == 0.0)
    down_p = plain.sides == DOWN
    down_r = refl.sides == DOWN
    assert np.array_equal(down_p, down_r)
    assert np.array_equal(plain.times[down_p], refl.times[down_r])
    assert np.array_equal(plain.positions[down_p], refl.positions[down_r])


def test_reflected_driftless_bm_regulator_oracle():
    # driftless BM reflected at 1, absorbed at 0: E[xi at absorption] = x0
    model = brownian_motion(drift=0.0, sigma=1.0)
    scheme = SimScheme(dt=1e-3, seed=4, horizon=200.0)
    s = simulate_reflected(model, 1.0, 0.0, 0.6, scheme, 20_000, q=0.0)
    mean = float(np.mean(s.xi_discounted))
    se = float(np.std(s.xi_discounted, ddof=1) / math.sqrt(s.n_paths))
    assert s.capped_fraction == 0.0
    assert abs(mean - 0.6) < 3.0 * se


def test_reflected_discount_monotone_in_q():
    model = brownian_motion(drift=0.0, sigma=1.0)
    scheme = SimScheme(dt=1e-3, seed=4, horizon=200.0)
    s0 = simulate_reflected(model, 1.0, 0.0, 0.6, scheme, 5000, q=0.0)
    s1 = simulate_reflected(model, 1.0, 0.0, 0.6, scheme, 5000, q=0.5)
    # same paths (same streams), discounting can only shrink the integral
    assert np.all(s1.xi_discounted <= s0.xi_discounted + 1e-12)


def test_reflected_ruin_certain_as_horizon_grows():
    model = brownian_motion(drift=0.1, sigma=0.7)
    fractions = []
    for horizon in [20.0, 40.0, 80.0]:
        s = simulate_reflected(model, 1.5, 0.0, 1.0,
                               SimScheme(dt=2e-3, seed=6, horizon=horizon), 3000, q=0.0)
        fractions.append(s.capped_fraction)
    assert fractions[0] >= fractions[1] >= fractions[2]
    assert fractions[2] < 0.05


def test_refracted_delta_zero_is_pathwise_plain(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=7, horizon=100.0)
    plain = simulate_first_passage(model, A, B, X0, scheme, 4000, q=0.0)
    refr = simulate_refracted(model, 0.0, 1.0, A, B, X0, scheme, 4000, q=0.0)
    assert np.array_equal(plain.times, refr.times)
    assert np.array_equal(plain.sides, refr.sides)
    down = plain.sides == DOWN
    assert np.array_equal(plain.positions[down], refr.positions[down])


def test_refracted_ruin_dominates_plain(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=11, horizon=400.0)
    plain = simulate_first_passage(model, A, B, X0, scheme, 20_000, q=0.0)
    refr = simulate_refracted(model, 0.3, 1.0, A, B, X0, scheme, 20_000, q=0.0)
    p_plain = float(np.mean(plain.sides == DOWN))
    p_refr = float(np.mean(refr.sides == DOWN))
    se = math.sqrt(p_plain * (1 - p_plain) / 20_000)
    assert p_refr > p_plain - 3 * se


def test_refracted_approaches_plain_as_c_rises(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=12, horizon=400.0)
    plain = simulate_first_passage(model, A, B, X0, scheme, 20_000, q=0.0)
    p_plain = float(np.mean(plain.sides == DOWN))
    devs = []
    for c in [1.2, 1.6, 1.9]:
        refr = simulate_refracted(model, 0.3, c, A, B, X0, scheme, 20_000, q=0.0)
        devs.append(abs(float(np.mean(refr.sides == DOWN)) - p_plain))
    se = math.sqrt(p_plain * (1 - p_plain) / 20_000)
    assert devs[-1] <= devs[0] + 3 * se
    assert devs[-1] < 3 * se + 0.01


def test_refracted_validation(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=1, horizon=10.0)
    with pytest.raises(ModelError):
        simulate_refracted(model, 2.0, 1.0, A, B, X0, scheme, 10, q=0.0)
    with pytest.raises(ModelError):
        simulate_refracted(model, 0.1, 2.5, A, B, X0, scheme, 10, q=0.0)


def test_resolvent_histogram_matches_formula(catalog, scale_cache):
    model = catalog["jump_diffusion"]
    q = 0.05
    res = estimate_resolvent(model, A, B, q, X0, SimScheme(dt=1e-3, seed=13),
                             60_000, n_bins=40)
    sf = scale_cache.get(model, q)
    prob = ExitProblem(A, B, q, X0)
    centers = res.centers
    exact = np.array([resolvent_density(sf, prob, float(z)) for z in centers])
    devs = np.abs(res.density - exact) / np.maximum(res.stderr, 1e-12)
    # chi-square style: the bulk of bins within 3 sigma, none absurd
    assert np.mean(devs < 3.0) > 0.95
    assert np.max(devs) < 6.0
    # mass balance within 3 sigma
    mass = q * float(np.sum(res.density * res.widths))
    up, up_se = estimate_exit_transform(res.samples, q, UP)
    down, down_se = estimate_exit_transform(res.samples, q, DOWN)
    total_se = math.sqrt(up_se ** 2 + down_se ** 2) + 1e-4
    assert abs(mass + up + down - 1.0) < 3 * total_se


def test_resolvent_monotone_in_q(catalog):
    model = catalog["cramer_lundberg"]
    r_small = estimate_resolvent(model, A, B, 0.05, X0,
                                 SimScheme(dt=1e-3, seed=14), 10_000, n_bins=20)
    r_large = estimate_resolvent(model, A, B, 10.0, X0,
                                 SimScheme(dt=1e-3, seed=14), 10_000, n_bins=20)
    tot_small = float(np.sum(r_small.density * r_small.widths))
    tot_large = float(np.sum(r_large.density * r_large.widths))
    assert tot_large < tot_small


def test_creeping_consistency_drift_only_modes(catalog):
    # sigma = 0 processes cannot creep: with small jumps represented by their
    # compensator drift, every down exit is a strict undershoot
    ts = catalog["tempered_stable"]
    scheme = SimScheme(dt=1e-3, eps=1e-3, seed=15, small_jump_mode="drift_only",
                       horizon=50.0)
    s = simulate_first_passage(ts, A, B, X0, scheme, 5000, q=0.0)
    down = s.sides == DOWN
    assert int(s.creep.sum()) == 0
    assert np.all(s.positions[down] < A)


def test_creeping_estimate_matches_formula(catalog, scale_cache):
    model = catalog["jump_diffusion"]
    scheme = SimScheme(dt=1e-3, seed=16)
    s = simulate_first_passage(model, A, B, X0, scheme, 40_000, q=0.05)
    creep_mc, creep_se = estimate_creeping(s, 0.05)
    sf = scale_cache.get(model, 0.05)
    exact = creeping_transform(sf, ExitProblem(A, B, 0.05, X0))
    assert abs(creep_mc - exact) < 3 * creep_se


def test_deterministic_reproducibility(catalog):
    model = catalog["jump_diffusion"]
    scheme = SimScheme(dt=2e-3, seed=17)
    e1 = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0, scheme, 15_000)
    e2 = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0, scheme, 15_000)
    assert e1.mean == e2.mean and e1.stderr == e2.stderr
    old = os.environ.get("LEVYFLUCT_THREADS")
    try:
        os.environ["LEVYFLUCT_THREADS"] = "4"
        e3 = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0, scheme, 15_000)
    finally:
        if old is None:
            os.environ.pop("LEVYFLUCT_THREADS", None)
        else:
            os.environ["LEVYFLUCT_THREADS"] = old
    assert e3.mean == e1.mean and e3.stderr == e1.stderr


def test_capped_paths_reported_and_flagged(catalog):
    model = catalog["cramer_lundberg"]
    scheme = SimScheme(dt=1e-3, seed=18, horizon=0.05)
    est = estimate_overshoot_functional(model, ONE, A, B, 0.0, X0, scheme, 2000)
    assert est.capped_fraction > 0.9
    assert est.flagged


def test_horizon_required_for_q_zero(catalog):
    model = catalog["cramer_lundberg"]
    with pytest.raises(ModelError):
        simulate_first_passage(model, A, B, X0, SimScheme(dt=1e-3, seed=1), 10, q=0.0)


def test_scheme_validation():
    with pytest.raises(ModelError):
        SimScheme(dt=0.0)
    with pytest.raises(ModelError):
        SimScheme(eps=-1.0)
    with pytest.raises(ModelError):
        SimScheme(small_jump_mode="bogus")


def test_one_path_standard_error_is_infinite(catalog):
    model = catalog["jump_diffusion"]
    scheme = SimScheme(dt=2e-3, seed=19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = simulate_first_passage(model, A, B, X0, scheme, 1, q=0.05)
        est = estimate_overshoot_functional(model, ONE, A, B, 0.05, X0, scheme, 1,
                                            samples=s)
        up = estimate_exit_transform(s, 0.05, UP)
        creep = estimate_creeping(s, 0.05)
    assert est.stderr == up[1] == creep[1] == math.inf
    assert math.isfinite(est.mean) and math.isfinite(up[0]) and math.isfinite(creep[0])


@pytest.mark.parametrize("raw", ["abc", "0", "-4"])
def test_thread_count_warns_on_malformed_value(monkeypatch, raw):
    monkeypatch.setenv("LEVYFLUCT_THREADS", raw)
    with pytest.warns(RuntimeWarning, match=re.escape(repr(raw))):
        assert thread_count() == 1


def test_thread_count_reads_positive_value(monkeypatch):
    monkeypatch.setenv("LEVYFLUCT_THREADS", "3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thread_count() == 3


# ---------------------------------------------------------------------------
# the blocked kernel against the per-step recursion it replaced
# ---------------------------------------------------------------------------

def reference_run(kernel, rng, nb):
    """Per-step Euler recursion over the kernel's own variate blocks.

    Blocks are drawn exactly as the kernel draws them; within a block the
    paths are stepped one column at a time, dropping each path at its exit.
    """
    a, b, q, dt = kernel.a, kernel.b, kernel.q, kernel.dt
    sqdt = math.sqrt(dt)
    sig_eff, sig2dt, drift0 = kernel.sig_eff, kernel.sig2dt, kernel.drift0
    use_bridge, reflect, n_bins = kernel.use_bridge, kernel.reflect, kernel.n_bins
    x = np.full(nb, kernel.x0)
    idx = np.arange(nb)
    times = np.full(nb, kernel.horizon)
    sides = np.full(nb, CAPPED, dtype=np.int8)
    pos = np.full(nb, np.nan)
    creep = np.zeros(nb, dtype=bool)
    xi_acc = np.zeros(nb)
    hist = np.zeros((nb, max(n_bins, 1)))
    step = 0
    while idx.size and step < kernel.n_steps:
        k = kernel.block_len(idx.size, step)
        blk = kernel.draw(rng, idx.size, k)
        live = np.arange(idx.size)
        for j in range(k):
            if live.size == 0:
                break
            rows = idx[live]
            t_now = (step + j) * dt
            if n_bins:
                w = math.exp(-q * t_now) * dt
                bins = np.clip(((x - a) / kernel.bin_w).astype(np.int64), 0, n_bins - 1)
                np.add.at(hist, (rows, bins), w)
            if kernel.refract_level is not None:
                drift = drift0 - kernel.delta * (x > kernel.refract_level)
            else:
                drift = drift0
            if sig_eff > 0.0:
                x_pre = x + drift * dt + sig_eff * sqdt * blk.z[j, live]
            else:
                x_pre = x + drift * dt
            if reflect:
                if use_bridge:
                    gap = x_pre - x
                    sup = 0.5 * (x + x_pre + np.sqrt(
                        gap * gap - 2.0 * sig2dt * np.log(blk.u_sup[j, live])))
                else:
                    sup = np.maximum(x, x_pre)
                xi_inc = np.maximum(sup - b, 0.0)
                x_pre = x_pre - xi_inc
                xi_acc[rows] += math.exp(-q * (t_now + 0.5 * dt)) * xi_inc
                hit_up = np.zeros(live.size, dtype=bool)
            elif use_bridge:
                p_up = np.where(x_pre >= b, 1.0,
                                np.exp(-2.0 * np.maximum(b - x, 0.0)
                                       * np.maximum(b - x_pre, 0.0) / sig2dt))
                u = blk.u[j, live]
                hit_up = u < p_up
            else:
                hit_up = x_pre >= b
            if use_bridge:
                if not reflect:
                    with np.errstate(divide="ignore", invalid="ignore"):
                        u2 = np.where(hit_up, 2.0, (u - p_up) / (1.0 - p_up))
                else:
                    u2 = blk.u[j, live]
                p_dn = np.where(x_pre <= a, 1.0,
                                np.exp(-2.0 * np.maximum(x - a, 0.0)
                                       * np.maximum(x_pre - a, 0.0) / sig2dt))
                hit_creep = (~hit_up) & (u2 < p_dn)
            else:
                hit_creep = (~hit_up) & (x_pre <= a)
            x_post = x_pre - blk.jumps[j, live] if blk.jumps is not None else x_pre
            hit_jump = (~hit_up) & (~hit_creep) & (x_post < a)
            if np.any(hit_up):
                if sig_eff > 0.0:
                    times[rows[hit_up]] = t_now + dt
                else:
                    d = drift[hit_up] if np.ndim(drift) else drift
                    times[rows[hit_up]] = t_now + (b - x[hit_up]) / d
                sides[rows[hit_up]] = UP
                pos[rows[hit_up]] = b
            times[rows[hit_creep]] = t_now + dt
            sides[rows[hit_creep]] = DOWN
            pos[rows[hit_creep]] = a
            creep[rows[hit_creep]] = True
            times[rows[hit_jump]] = t_now + dt
            sides[rows[hit_jump]] = DOWN
            pos[rows[hit_jump]] = x_post[hit_jump]
            keep = (~hit_up) & (~hit_creep) & (~hit_jump)
            x = x_post[keep]
            live = live[keep]
        idx = idx[live]
        step += k
    return dict(times=times, sides=sides, pos=pos, creep=creep, xi=xi_acc,
                hist=hist.sum(axis=0), hist_sq=(hist ** 2).sum(axis=0))


# (fixture, bridge, kernel options); reflection rewrites the Skorokhod
# recursion as a running maximum, so its floating-point sums may differ
# from the recursion's by rounding: 1e-12 absolute there, bit-identical
# everywhere else
REFLECTED_ATOL = 1e-12
KERNEL_CASES = {
    "plain_jump_diffusion_hist": ("jump_diffusion", True, dict(n_bins=30)),
    "plain_tempered_stable": ("tempered_stable", True, {}),
    "plain_cramer_lundberg": ("cramer_lundberg", True, {}),
    "plain_brownian_no_bridge": ("brownian", False, {}),
    "reflected_bridge_hist": ("jump_diffusion", True, dict(reflect=True, n_bins=30)),
    "reflected_no_bridge": ("jump_diffusion", False, dict(reflect=True)),
    "refracted_hist": ("jump_diffusion", True,
                       dict(delta=0.15, refract_level=1.0, n_bins=30)),
    "refracted_cramer_lundberg": ("cramer_lundberg", True,
                                  dict(delta=0.15, refract_level=1.0)),
    "refracted_pure_drift": ("pure_drift", True, dict(delta=0.15, refract_level=1.0)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_blocked_kernel_matches_per_step_recursion(catalog, case):
    name, bridge, opts = KERNEL_CASES[case]
    scheme = SimScheme(dt=2e-3, seed=21, horizon=6.0, bridge=bridge)
    models = dict(catalog, pure_drift=LevyTriplet(gamma=0.8, sigma=0.0, measure=no_jumps()))
    kernel = mc._Kernel(models[name], A, B, X0, scheme, 0.05, **opts)
    n = 600

    def stream():
        return np.random.Generator(np.random.Philox(key=21, counter=[0, 0, 0, 0]))

    new = kernel.run(stream(), n)
    ref = reference_run(kernel, stream(), n)
    assert np.count_nonzero(ref["sides"] != CAPPED) > n // 2
    assert np.array_equal(new["sides"], ref["sides"])
    assert np.array_equal(new["creep"], ref["creep"])
    assert np.array_equal(new["times"], ref["times"])
    floats = [("pos", new["pos"], ref["pos"])]
    if kernel.n_bins:
        floats += [("hist", new["hist"], ref["hist"]),
                   ("hist_sq", new["hist_sq"], ref["hist_sq"])]
    if kernel.reflect:
        floats.append(("xi", new["xi"], ref["xi"]))
        assert np.any(ref["xi"] > 0.0)
        for label, got, want in floats:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=REFLECTED_ATOL,
                                       err_msg=label)
    else:
        for label, got, want in floats:
            assert np.array_equal(got, want, equal_nan=True), label


BAD_EXIT_CALLS = {
    "refracted_start_above_b":
        lambda m, s: simulate_refracted(m, 0.1, 1.0, A, B, 3.0, s, 10, q=0.05),
    "reflected_start_below_a":
        lambda m, s: simulate_reflected(m, B, A, -1.0, s, 10, q=0.05),
    "negative_rate":
        lambda m, s: estimate_overshoot_functional(m, ONE, A, B, -0.05, X0, s, 10),
}


@pytest.mark.parametrize("case", sorted(BAD_EXIT_CALLS))
def test_exit_rule_enforced_by_simulators(catalog, case):
    scheme = SimScheme(dt=1e-3, seed=1, horizon=1.0)
    with pytest.raises(ModelError):
        BAD_EXIT_CALLS[case](catalog["jump_diffusion"], scheme)


def test_table_measure_exit_transform_matches_identity():
    # the table-measure model of the CLI spec test; the seed was fixed before the
    # first run
    model = model_from_dict({
        "gamma": 1.0, "sigma": 0.0,
        "measure": {"family": "table", "theta": [0.05, 0.5, 1.0, 3.0, 8.0],
                    "pi": [0.7, 0.4, 0.25, 0.05, 0.001]}})
    q = 0.05
    samples = simulate_first_passage(model, A, B, X0, SimScheme(dt=1e-3, seed=1),
                                     4000, q=q)
    up, se = estimate_exit_transform(samples, q, UP)
    exact = two_sided_exit_up(ScaleFunction(model, q), ExitProblem(A, B, q, X0))
    assert abs(up - exact) < 4.0 * se
