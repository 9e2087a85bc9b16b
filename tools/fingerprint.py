"""Bit-identity fingerprint of the package's numbers, one SHA-256 per section.

Run in a checkout (it imports the package from that checkout's ``src``):

    python tools/fingerprint.py

and compare the printed digests with another checkout's.  A digest hashes
the float64 bytes of every value in its section (a raised error hashes as
its type name), so equal digests mean bit-identical numbers.  Sections:

* ``scale[closed_form]`` and ``scale[laplace_inversion]``: W, w_exact, W',
  W'', int_0^x W and Z on a fixed grid, for the four catalog fixtures and a
  pure drift at q in {0, 0.05, 0.5}, under each method (the closed-form
  section alone covers the closed forms);
* ``scale[table]`` (printed last, so the other lines keep their order): W,
  w_exact, W' and Z on the same grid for the 40-segment geometric table of
  ``tests/test_table_measure.py`` at the same q;
* ``exponent``: psi on a grid and Phi(q);
* ``sweep_probe``: the value and accuracy of every route of the benchmark's
  ``sweep`` workload at its probe point (f = 1, a = 0, b = 2, q = 0.05,
  x = 1.6), and its overshoot of W;
* ``boundary_and_mass``: ``boundary_start`` at x = a on the Cramer-Lundberg
  fixture (f in {1, e^y}, q in {0.05, 0.4}), and ``mass_balance_gap`` on the
  four catalog fixtures at the ``sweep_probe`` point;
* ``overshoot_of_w``: ``overshoot_of_scale_function`` on the tempered-stable
  fixture at the four piecewise-reference points of ``tests/test_identities.py``,
  the first of which is the benchmark's ``w_overshoot_abs_err_max`` probe (exact
  value 0), whose reading is printed after the digest;
* ``golden_eval``: the golden ``eval`` output's bytes, and whether they match
  ``tests/golden/``;
* ``montecarlo``: seeded ``simulate_first_passage``,
  ``simulate_reflected`` and ``simulate_refracted`` samples, with the
  occupation histograms of the last two, on the four catalog fixtures at a
  few hundred paths in several batches (``MC_SCHEME``);
* ``membership`` (printed after ``montecarlo``): every ``CheckItem`` value and
  outcome, the Corollary condition, the lemma flag and the unverified flag of
  ``check_membership`` for the ``sweep_probe`` section's three extensions of
  f = 1 on the four catalog fixtures;
* ``modified`` (printed after ``membership``): the value, terms and accuracy
  of ``reflected_overshoot`` and of ``refracted_overshoot`` (delta = 0.15 and
  delta = 0, c = 1) for f = e^y on the jump-diffusion and Cramer-Lundberg
  fixtures, with a seeded ``MonteCarloProvider`` of a few hundred paths, and
  the exit code and output bytes of one ``eval-reflected`` and one
  ``eval-refracted`` command;
* ``cli`` (printed after ``modified``): the exit code and output bytes of
  ``eval`` on the ``golden_eval`` problem for every ``formula`` and every
  extension kind (``affine_at_a`` with and without ``slope``), for a table
  penalty and for a penalty that reads ``W(...)``, of seeded ``mc`` and
  ``compare`` runs of a few hundred paths, and of ``scale``;
* ``memo_hits`` (printed last, not a digest): ``scale[laplace_inversion]``,
  ``overshoot_of_w`` and ``membership`` run again right after their first
  run, with every ``ScaleFunction`` build and every membership report refused,
  so each is served by the build memo or by the reports its penalties keep; it
  says whether each digest equals the first.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from levyfluct import (cli, generator, identities, models, montecarlo,  # noqa: E402
                       reflected_refracted as rr)
from levyfluct.scale import ScaleFunction  # noqa: E402

QS = (0.0, 0.05, 0.5)
GRID = np.array([-1.0, 0.0, 1e-7, 3e-5, 1e-3, 0.05, 0.3, 1.0, 1.7, 3.2, 6.5, 9.9, 10.0, 11.5])
LAMS = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0])
EXTENSIONS = ("zero", "constant_one", "affine_at_a")
ROUTES = tuple(f"general[{kind}]" for kind in EXTENSIONS) + ("simple", "zero_extension")
# (a, b, q, x) of the benchmark's sweep probe
PROBE = (0.0, 2.0, 0.05, 1.6)
# the geometric table of tests/test_table_measure.py
GEO = np.geomspace(0.05, 8.0, 40)
GOLDEN = ROOT / "tests" / "golden" / "eval_jump_diffusion.json"
GOLDEN_SPEC = {
    "model": {"gamma": 0.3, "sigma": 0.6,
              "measure": {"family": "exponential", "intensity": 0.8, "decay": 1.5}},
    "penalty": {"f": "exp(y)", "extension": {"kind": "affine_at_a"}},
    "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "general"}


def fixtures():
    out = models.canonical_models()
    out["pure_drift"] = models.LevyTriplet(gamma=0.4, sigma=0.0, measure=models.no_jumps())
    return out


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()
        self.errors = 0

    def call(self, fn, *args):
        """``fn(*args)``, or None after hashing the type of the error it raises."""
        try:
            return fn(*args)
        except Exception as exc:  # an error is part of the fingerprint
            self._h.update(type(exc).__name__.encode())
            self.errors += 1
            return None

    def add(self, fn, *args):
        """Hash the float64 bytes of ``fn(*args)``, or the type of its error."""
        value = self.call(fn, *args)
        if value is not None:
            self._h.update(np.asarray(value, dtype=float).tobytes())

    def hexdigest(self):
        return f"{self._h.hexdigest()} ({self.errors} errors)"


def scale_section(method):
    d = Digest()
    pos = GRID[GRID > 0]
    for model in fixtures().values():
        for q in QS:
            sf = d.call(ScaleFunction, model, q, method)
            if sf is None:
                continue
            for fn, xs in ((sf.w, GRID), (sf.w_exact, GRID), (sf.w_prime, pos),
                           (sf.w_second, pos), (sf.w_antiderivative, GRID), (sf.z, GRID)):
                d.add(fn, xs)
            d.add(lambda: [sf.phi, sf.w0, sf.tolerance_estimate])
    return d.hexdigest()


def table_section():
    d = Digest()
    model = models.LevyTriplet(gamma=1.0, sigma=0.0,
                               measure=models.table_jumps(GEO, 0.7 * np.exp(-1.2 * GEO)))
    for q in QS:
        sf = d.call(ScaleFunction, model, q)
        if sf is None:
            continue
        for fn, xs in ((sf.w, GRID), (sf.w_exact, GRID), (sf.w_prime, GRID[GRID > 0]),
                       (sf.z, GRID)):
            d.add(fn, xs)
    return d.hexdigest()


def exponent_section():
    d = Digest()
    for model in fixtures().values():
        d.add(models.laplace_exponent, model, LAMS)
        for q in QS:
            d.add(models.right_inverse_phi, model, q)
    return d.hexdigest()


def route_result(route, f, penalties, sf, prob):
    """(value, accuracy) of one ``sweep`` route."""
    if route == "simple":
        val = identities.overshoot_functional_simple(penalties["constant_one"], sf, prob)
    elif route == "zero_extension":
        val = identities.overshoot_zero_extension(f, sf, prob)
    else:
        val = identities.overshoot_functional_general(penalties[route[len("general["):-1]],
                                                      sf, prob)
    return [val.value, val.accuracy]


def one(y):
    return np.ones(np.shape(y))


def sweep_probe_section():
    d = Digest()
    a, b, q, x = PROBE
    prob = identities.ExitProblem(a, b, q, x)
    for model in models.canonical_models().values():
        sf = ScaleFunction(model, q)
        penalties = {k: generator.extend_penalty(one, a, b, k) for k in EXTENSIONS}
        for route in ROUTES:
            d.add(route_result, route, one, penalties, sf, prob)
        d.add(identities.overshoot_of_scale_function, model, 0.1, q, 0.1,
              identities.ExitProblem(0.0, b, q, 1.0))
    return d.hexdigest()


def boundary_and_mass_section():
    d = Digest()
    a, b, q, x = PROBE
    cl = models.canonical_models()["cramer_lundberg"]
    for q_bs in (0.05, 0.4):
        sf = ScaleFunction(cl, q_bs)
        for f in (one, np.exp):
            d.add(identities.boundary_start, generator.extend_penalty(f, a, b, "constant_one"),
                  sf, identities.ExitProblem(a, b, q_bs, a))
    for model in models.canonical_models().values():
        d.add(identities.mass_balance_gap, ScaleFunction(model, q),
              identities.ExitProblem(a, b, q, x))
    return d.hexdigest()


# (a, b, x, delta, p, q) of the overshoot-of-W points
OSF_POINTS = [(0.0, 2.0, 1.0, 0.1, 0.05, 0.1), (0.0, 2.0, 1.9, 0.1, 0.05, 0.1),
              (0.5, 2.5, 1.5, 0.1, 0.05, 0.1), (0.3, 1.0, 0.9, 0.2, 0.0, 0.3)]


def overshoot_of_w_section():
    d = Digest()
    model = models.canonical_models()["tempered_stable"]
    values = []
    for a, b, x, delta, p_kill, q_inner in OSF_POINTS:
        values.append(d.call(identities.overshoot_of_scale_function, model, delta, p_kill,
                             q_inner, identities.ExitProblem(a, b, p_kill, x)))
        d.add(lambda: values[-1])
    return f"{d.hexdigest()} probe {values[0]}"


def cli_run(command, spec):
    """The exit code and output bytes of ``levyfluct <command>`` on ``spec``;
    its diagnostics on stderr are dropped."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(spec))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--spec", "-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode()


def golden_section():
    code, text = cli_run("eval", GOLDEN_SPEC)
    match = code == 0 and text == GOLDEN.read_bytes()
    return f"{hashlib.sha256(text).hexdigest()} {'match' if match else 'DIFFERS'}"


# several batches, so that the stream-to-path assignment is part of the hash
MC_SCHEME = montecarlo.SimScheme(dt=4e-3, seed=11, horizon=4.0, batch_size=128)
MC_PATHS = 300
MC_BINS = 16
# (a, b, q, x): started near a, so that paths leave on both sides
MC_POINT = (0.0, 2.0, 0.05, 0.6)


def sample_arrays(out):
    """The float arrays of an ``ExitSamples``, or of (samples, ResolventEstimate)."""
    samples, res = out if isinstance(out, tuple) else (out, None)
    arrays = [samples.times, samples.sides, samples.positions, samples.creep]
    if samples.xi_discounted is not None:
        arrays.append(samples.xi_discounted)
    if res is not None:
        arrays += [res.density, res.stderr]
    return np.concatenate([np.asarray(v, dtype=float) for v in arrays])


def montecarlo_section():
    d = Digest()
    a, b, q, x = MC_POINT
    for model in models.canonical_models().values():
        runs = ((montecarlo.simulate_first_passage, (model, a, b, x, MC_SCHEME, MC_PATHS, q)),
                (montecarlo.simulate_reflected, (model, b, a, x, MC_SCHEME, MC_PATHS, q,
                                                 MC_BINS)),
                (montecarlo.simulate_refracted, (model, 0.1, 1.0, a, b, x, MC_SCHEME, MC_PATHS,
                                                 q, MC_BINS)))
        for simulate, args in runs:
            d.add(lambda: sample_arrays(simulate(*args)))
    return d.hexdigest()


@functools.cache
def probe_penalties():
    """The ``sweep_probe`` extensions of f = 1, made once, so that a second
    ``membership`` pass meets the reports the first one left on them."""
    a, b = PROBE[:2]
    return {k: generator.extend_penalty(one, a, b, k) for k in EXTENSIONS}


def report_values(report):
    """The numbers of a ``MembershipReport``; no Corollary condition reads NaN."""
    cond = report.corollary_condition
    return [v for item in report.items for v in (item.value, item.passed)] + [
        math.nan if cond is None else cond, report.lemma_integrability,
        report.membership_unverified]


def membership_section():
    d = Digest()
    for model in models.canonical_models().values():
        for penalty in probe_penalties().values():
            d.add(lambda: report_values(generator.check_membership(penalty, model)))
    return d.hexdigest()


# the refraction level and drift reductions of the modified section
MOD_C = 1.0
MOD_DELTAS = (0.15, 0.0)
MOD_SCHEME = montecarlo.SimScheme(dt=4e-3, seed=13, horizon=4.0)
MOD_SPEC = dict(GOLDEN_SPEC, penalty={"f": "exp(y)", "extension": {"kind": "constant_one"}},
                mc={"paths": MC_PATHS, "dt": 4e-3, "seed": 13})


def value_numbers(val):
    """The value, terms and accuracy of a ``GerberShiuValue``."""
    return [val.value, *val.terms.values(), val.accuracy]


def modified_section():
    d = Digest()
    a, b, q, x = MC_POINT
    for name in ("jump_diffusion", "cramer_lundberg"):
        model = models.canonical_models()[name]
        penalty = generator.extend_penalty(np.exp, a, b, "constant_one")
        provider = rr.MonteCarloProvider(scheme=MOD_SCHEME, n_paths=MC_PATHS, n_bins=MC_BINS)
        d.add(lambda: value_numbers(rr.reflected_overshoot(
            penalty, rr.ReflectedSpec(model=model, b=b, a=a, q=q, x=x), provider)))
        for delta in MOD_DELTAS:
            d.add(lambda: value_numbers(rr.refracted_overshoot(
                penalty, rr.RefractedSpec(model=model, delta=delta, c=MOD_C, a=a, b=b, q=q, x=x),
                provider)))
    for command, extra in (("eval-reflected", {}),
                           ("eval-refracted", {"delta": MOD_DELTAS[0], "c": MOD_C})):
        code, text = cli_run(command, dict(MOD_SPEC, **extra))
        d.add(lambda: [code, *text])
    return d.hexdigest()


CLI_FORMULAS = ("auto", "general", "simple", "zero_extension")
CLI_EXTENSIONS = ({"kind": "zero"}, {"kind": "constant_one"}, {"kind": "affine_at_a"},
                  {"kind": "affine_at_a", "slope": 0.5}, {"kind": "custom", "expr": "exp(y)"},
                  {"kind": "scale_function"})
CLI_PENALTIES = ({"f": {"table": {"y": [-5.0, -1.0, 0.0], "values": [0.2, 0.6, 1.0]}}},
                 {"f": "exp(y) + W(0.5)", "extension": {"kind": "constant_one"}})
CLI_MC = {"paths": MC_PATHS, "dt": 4e-3, "seed": 17, "horizon": 4.0}


def cli_section():
    d = Digest()
    runs = [("eval", dict(GOLDEN_SPEC, formula=formula, penalty={"f": "exp(y)", "extension": ext}))
            for formula in CLI_FORMULAS for ext in CLI_EXTENSIONS]
    runs += [("eval", dict(GOLDEN_SPEC, formula="auto", penalty=penalty))
             for penalty in CLI_PENALTIES]
    runs += [(command, dict(GOLDEN_SPEC, mc=CLI_MC)) for command in ("mc", "compare")]
    runs.append(("scale", {"model": GOLDEN_SPEC["model"], "q": 0.05,
                           "grid": {"start": 0.1, "stop": 3.0, "n": 7}}))
    for command, spec in runs:
        code, text = cli_run(command, spec)
        d.add(lambda: [code, *text])
    return d.hexdigest()


def memo_hits(section):
    """``section()`` with every ``ScaleFunction`` build and every membership
    report refused: one that no cache serves raises, and its type enters the
    digest."""
    def refuse(*args):
        raise RuntimeError("a computation no cache served")

    with mock.patch.object(ScaleFunction, "_build", refuse), \
            mock.patch.object(generator, "_membership_report", refuse):
        return section()


# sections run again from the caches; all of their builds fit in the memo
REPLAYED = ("scale[laplace_inversion]", "overshoot_of_w", "membership")


def main():
    sections = {
        "scale[closed_form]": lambda: scale_section("closed_form"),
        "scale[laplace_inversion]": lambda: scale_section("laplace_inversion"),
        "exponent": exponent_section,
        "sweep_probe": sweep_probe_section,
        "boundary_and_mass": boundary_and_mass_section,
        "overshoot_of_w": overshoot_of_w_section,
        "golden_eval": golden_section,
        "scale[table]": table_section,
        "montecarlo": montecarlo_section,
        "membership": membership_section,
        "modified": modified_section,
        "cli": cli_section,
    }
    equal = {}
    for name, fn in sections.items():
        digest = fn()
        print(f"{name:26s} {digest}", flush=True)
        if name in REPLAYED:
            equal[name] = memo_hits(fn) == digest
    print(f"{'memo_hits':26s} " + ", ".join(
        f"{name} {'equal' if same else 'DIFFERS'}" for name, same in equal.items()))


if __name__ == "__main__":
    main()
