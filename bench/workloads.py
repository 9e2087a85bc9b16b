"""The benchmark's workloads: seeded inputs, set-up, untimed checks and requests.

Every workload is a closed loop with one client in one process.  Requests come
in rounds: every round holds the same number of requests of each kind, and
round ``r`` draws its inputs from ``(seed, r)``.  run.py weights its
statistics by that mix, so they do not depend on where in a round a run
stops.  Requests fall into two lanes, ``rational`` (fixtures with a rational
Laplace exponent: brownian, cramer_lundberg, jump_diffusion) and
``tempered`` (the tempered-stable fixture).  A request returns one ``Result``; only calls into the package are
inside its timing, and every gate is evaluated outside it.  See NOTES.md for
why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from levyfluct import cli, generator, identities, models, montecarlo, scale

A, B, Q = 0.0, 2.0, 0.05
X_MAX = 10.0                   # the ScaleFunction range the CLI builds for b = 2
X_FIXED = 1.2                  # start of tempered-stable evaluations and of mc_passage
X_WINDOW = (1.0, 1.4)          # seeded starts of cli_modified requests
RATIONAL = ("brownian", "cramer_lundberg", "jump_diffusion")
TEMPERED = "tempered_stable"
FIXTURES = RATIONAL + (TEMPERED,)
EXTENSIONS = ("zero", "constant_one", "affine_at_a")
ROUTES = ("general[zero]", "general[constant_one]", "general[affine_at_a]", "simple",
          "zero_extension")

SWEEP_PENALTIES = 4            # seeded penalty pool, extended in set-up
SWEEP_STARTS = 4               # stratified starts per rational fixture and round
MC_DT = 4e-3
MC_PATHS = 1000
CLI_DT = 4e-3
CLI_PATHS = 1000
CLI_DELTA, CLI_C = 0.15, 1.0

ERR_TARGET = 1e-3
RATIONAL_ROUTE_TOL = 1e-9      # absolute; closed forms agree to ~1e-14
TEMPERED_ROUTE_TOL = 1e-5      # relative; loose sanity gate, spread is reported
W_REF_TOL = 1e-6               # relative
W_POINTS = (0.05, 0.5, 1.0, 2.0, 5.0)
OSF_DELTA, OSF_Q = 0.1, 0.1
OSF_TOL = 1e-6                 # absolute; exact value is 0
MC_SIGMAS = 5.0
CAPPED_MAX = 1e-3
DELTA0_SIGMAS = 3.0

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "eval_jump_diffusion.json"
GOLDEN_SPEC = {
    "model": {"gamma": 0.3, "sigma": 0.6,
              "measure": {"family": "exponential", "intensity": 0.8, "decay": 1.5}},
    "penalty": {"f": "exp(y)", "extension": {"kind": "affine_at_a"}},
    "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "general"}


@dataclass(frozen=True)
class Penalty:
    """f(y) = 1 + c1 (e^{c2 y} - 1): positive, increasing, f(a) = 1 at a = 0."""

    c1: float
    c2: float

    def __call__(self, y):
        return 1.0 + self.c1 * np.expm1(self.c2 * np.asarray(y, dtype=float))

    @property
    def expr(self):
        return f"1 + {self.c1!r}*(exp({self.c2!r}*y) - 1)"


def draw_penalty(rng):
    return Penalty(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.6, 1.4)))


PROBE_PENALTY = Penalty(0.0, 1.0)   # f = 1, the classical exit problem
PROBE_X = 1.6


@dataclass(frozen=True)
class Request:
    """One unit of work; ``call`` returns its ``Result``."""

    lane: str
    kind: str                  # fixture, or CLI request type
    call: object
    route: str = ""            # sweep: the identity route


@dataclass
class Result:
    lane: str
    kind: str
    seconds: float
    ok: bool
    err: float = 0.0           # error reached: stderr or reported accuracy
    seed: int | None = None    # SimScheme seed of a Monte Carlo request
    point: int | None = None   # sweep: index of the (fixture, penalty, x) evaluated
    value: float = math.nan
    route: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)
        self.err = float(self.err)


def model_spec(model):
    """The CLI's JSON form of a catalog model."""
    meas = model.measure
    spec = {"family": meas.family}
    spec.update(meas.params)
    return {"gamma": model.gamma, "sigma": model.sigma, "measure": spec}


def run_cli(argv, spec):
    """One in-process ``cli.main`` request; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    stdin = io.StringIO(json.dumps(spec))
    with contextlib.redirect_stdout(out), _stdin(stdin):
        t0 = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - t0
    return code, out.getvalue(), seconds


@contextlib.contextmanager
def _stdin(stream):
    saved = sys.stdin
    sys.stdin = stream
    try:
        yield
    finally:
        sys.stdin = saved


def evaluate_route(route, model, sf, penalties, f, x):
    """One evaluation by one route; (value, accuracy).

    Each evaluation includes check_membership, as the CLI's does.  The simple
    form uses the constant_one extension, which is continuous at a for these
    penalties, so one of its conditions holds on every fixture; if none did,
    the call would raise and the request would count as failed.
    """
    prob = identities.ExitProblem(A, B, Q, x)
    if route.startswith("general"):
        penalty = penalties[route[len("general["):-1]]
        rep = generator.check_membership(penalty, model)
        val = identities.overshoot_functional_general(penalty, sf, prob, membership=rep)
    elif route == "simple":
        penalty = penalties["constant_one"]
        rep = generator.check_membership(penalty, model)
        val = identities.overshoot_functional_simple(penalty, sf, prob, membership=rep)
    else:
        generator.check_membership(penalties["constant_one"], model)
        val = identities.overshoot_zero_extension(f, sf, prob)
    return val.value, val.accuracy


def route_spread(values):
    vals = np.array(values)
    return float(np.ptp(vals) / np.max(np.abs(vals)))


def routes_agree(name, values):
    vals = np.array(values)
    if not np.all(np.isfinite(vals)):
        return False
    if name == TEMPERED:
        return route_spread(values) <= TEMPERED_ROUTE_TOL
    return float(np.ptp(vals)) <= RATIONAL_ROUTE_TOL


def gate_stderr(se, ref, n):
    """Standard error for a Monte Carlo gate on a payoff with values in [0, 1].

    The sample standard error understates the error when few paths
    contribute: about 2% of tempered-stable paths leave downwards, and a
    sample with few of them reads far below the identity with a small standard
    error.  Such a payoff with mean ``ref`` has variance at most
    ``ref (1 - ref)``, so the larger of the two is used.
    """
    return max(se, math.sqrt(max(ref * (1.0 - ref), 0.0) / n))


def lane_of(name):
    return "tempered" if name == TEMPERED else "rational"


# ---------------------------------------------------------------------------
# checks shared by every workload
# ---------------------------------------------------------------------------

def accuracy_probe(catalog):
    """Accuracy of the analytic layer at fixed points, identical in every run.

    Returns (metrics as name -> (value, unit), gate outcomes).  The analytic
    layer supplies the gate references of every workload, so every workload
    reports its accuracy.
    """
    from reference import scale_w   # mpmath stays out of the set-up time

    gates = {}
    w_err = 0.0
    spread = 0.0
    for name, model in catalog.items():
        sf = scale.ScaleFunction(model, Q, x_max=X_MAX)
        ref = np.array(scale_w(model, Q, W_POINTS, sf.phi))
        err = float(np.max(np.abs(sf.w(np.array(W_POINTS)) - ref) / ref))
        gates[f"w_reference[{name}]"] = err <= W_REF_TOL
        w_err = max(w_err, err)
        penalties = {k: generator.extend_penalty(PROBE_PENALTY, A, B, k) for k in EXTENSIONS}
        values = [evaluate_route(route, model, sf, penalties, PROBE_PENALTY, PROBE_X)[0]
                  for route in ROUTES]
        gates[f"route_probe[{name}]"] = routes_agree(name, values)
        spread = max(spread, route_spread(values))
    osf = overshoot_of_w(catalog[TEMPERED])
    gates["overshoot_of_w"] = abs(osf) <= OSF_TOL
    code, text, _ = run_cli(["eval", "--spec", "-"], GOLDEN_SPEC)
    gates["golden_eval"] = code == 0 and text.encode() == GOLDEN.read_bytes()
    metrics = {"w_rel_err_max": (w_err, "ratio"),
               "route_spread_rel_max": (spread, "ratio"),
               "w_overshoot_abs_err_max": (abs(osf), "abs")}
    return metrics, gates


def overshoot_of_w(model):
    """E_x[e^{-p nu} W^(q)(Y_nu); down first] for Y = X - 0.1 t, q = 0.1, at a = 0.

    Y ends at or below 0 and W^(q) vanishes there (W^(q)(0) = 0 for unbounded
    variation), so the exact value is 0.
    """
    return identities.overshoot_of_scale_function(
        model, OSF_DELTA, Q, OSF_Q, identities.ExitProblem(0.0, B, Q, 1.0))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Seeded inputs plus the shared state built in set-up."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.catalog = None

    def check(self):
        """Untimed references for the gates."""

    def round_rng(self, r):
        return np.random.default_rng([self.seed, r])

    def gate(self, results):
        """Gates over several results of one round; per-request gates run in the request."""

    def describe(self):
        return {"penalties": [[f.c1, f.c2] for f in self.funcs]}


class Sweep(Workload):
    """Value-function sweep: every route on every fixture, one ScaleFunction each."""

    name = "sweep"

    def __init__(self, seed):
        super().__init__(seed)
        self.funcs = [draw_penalty(self.rng) for _ in range(SWEEP_PENALTIES)]

    def build(self):
        self.catalog = models.canonical_models()
        self.sfs = {name: scale.ScaleFunction(m, Q, x_max=X_MAX)
                    for name, m in self.catalog.items()}
        self.extended = [{k: generator.extend_penalty(f, A, B, k) for k in EXTENSIONS}
                         for f in self.funcs]

    def round(self, r):
        """One overshoot of W, then every route at one tempered-stable point and at
        SWEEP_STARTS points per rational fixture.

        A point is (fixture, penalty, x).  Rational starts are stratified over
        (a, b], one per stratum; the tempered-stable start is fixed.
        """
        rng = self.round_rng(r)
        points = [(TEMPERED, int(rng.integers(len(self.funcs))), X_FIXED)]
        for name in RATIONAL:
            u = 1.0 - rng.random(SWEEP_STARTS)
            xs = A + (B - A) * (np.arange(SWEEP_STARTS) + u) / SWEEP_STARTS
            ks = rng.integers(len(self.funcs), size=SWEEP_STARTS)
            points += [(name, int(k), float(x)) for k, x in zip(ks, xs)]
        reqs = [Request("tempered", "overshoot_of_w", self._overshoot_of_w)]
        for p, point in enumerate(points):
            reqs += [Request(lane_of(point[0]), point[0],
                             functools.partial(self._route, p, point, route), route)
                     for route in ROUTES]
        return reqs

    def _route(self, p, point, route):
        name, k, x = point
        t0 = perf_counter()
        value, acc = evaluate_route(route, self.catalog[name], self.sfs[name],
                                    self.extended[k], self.funcs[k], x)
        return Result(lane_of(name), name, perf_counter() - t0, acc <= ERR_TARGET, acc,
                      point=p, value=value, route=route)

    def gate(self, results):
        """The routes at each point agree."""
        values = {}
        for r in results:
            if r.point is not None:
                values.setdefault(r.point, []).append(r.value)
        for r in results:
            if r.point is not None and not routes_agree(r.kind, values[r.point]):
                r.ok = False

    def _overshoot_of_w(self):
        t0 = perf_counter()
        value = overshoot_of_w(self.catalog[TEMPERED])
        return Result("tempered", "overshoot_of_w", perf_counter() - t0,
                      abs(value) <= OSF_TOL, value=value)


class MCPassage(Workload):
    """First-passage simulation, each sample set reused for several penalties."""

    name = "mc_passage"

    def __init__(self, seed):
        super().__init__(seed)
        self.funcs = [draw_penalty(self.rng) for _ in range(3)]

    def build(self):
        self.catalog = models.canonical_models()

    def check(self):
        """Identity values for the gates: one per penalty, exit and creeping."""
        self.refs = {}
        prob = identities.ExitProblem(A, B, Q, X_FIXED)
        for name, model in self.catalog.items():
            sf = scale.ScaleFunction(model, Q, x_max=X_MAX)
            self.refs[name] = (
                [identities.overshoot_functional_general(
                    generator.extend_penalty(f, A, B, "constant_one"), sf, prob).value
                 for f in self.funcs],
                identities.two_sided_exit_up(sf, prob),
                identities.creeping_transform(sf, prob))

    def round(self, r):
        """One simulation per fixture, each with its own SimScheme seed."""
        seeds = self.round_rng(r).integers(1, 2 ** 31, size=len(FIXTURES))
        return [Request(lane_of(name), name, functools.partial(self._simulate, name, int(s)))
                for name, s in zip(FIXTURES, seeds)]

    def _simulate(self, name, sim_seed):
        model = self.catalog[name]
        scheme = montecarlo.SimScheme(dt=MC_DT, seed=sim_seed)
        t0 = perf_counter()
        samples = montecarlo.simulate_first_passage(model, A, B, X_FIXED, scheme, MC_PATHS,
                                                    q=Q)
        ests = [montecarlo.estimate_overshoot_functional(model, f, A, B, Q, X_FIXED, scheme,
                                                         MC_PATHS, samples=samples)
                for f in self.funcs]
        up = montecarlo.estimate_exit_transform(samples, Q, montecarlo.UP)
        creep = montecarlo.estimate_creeping(samples, Q)
        seconds = perf_counter() - t0
        pen_refs, up_ref, creep_ref = self.refs[name]
        checks = [(e.mean, e.stderr, r) for e, r in zip(ests, pen_refs)]
        checks.append((up[0], up[1], up_ref))
        if model.sigma > 0.0:
            # with sigma = 0 the process cannot creep, but the tempered-stable
            # simulation stands in a Gaussian part for the small jumps, which can
            checks.append((creep[0], creep[1], creep_ref))
        ok = samples.capped_fraction <= CAPPED_MAX and all(
            abs(mean - ref) <= MC_SIGMAS * gate_stderr(se, ref, MC_PATHS)
            for mean, se, ref in checks)
        return Result(lane_of(name), name, seconds, ok, max(se for _, se, _ in checks),
                      sim_seed)


class CLIModified(Workload):
    """Independent reflected / refracted requests through ``cli.main``."""

    name = "cli_modified"
    KINDS = (("eval-reflected", "jump_diffusion", None),
             ("eval-reflected", "cramer_lundberg", None),
             ("eval-refracted", "jump_diffusion", CLI_DELTA),
             ("eval-refracted", "cramer_lundberg", CLI_DELTA),
             ("eval-refracted", "jump_diffusion", 0.0),
             ("eval-refracted", TEMPERED, CLI_DELTA))

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = [(float(self.rng.uniform(*X_WINDOW)), draw_penalty(self.rng))
                       for _ in range(8)]

    def build(self):
        # nothing is shared between requests: each builds its own spec,
        # penalty and ScaleFunction inside cli.main
        self.catalog = models.canonical_models()

    def check(self):
        """General-identity values that the delta = 0 refracted requests must match."""
        model = self.catalog["jump_diffusion"]
        sf = scale.ScaleFunction(model, Q, x_max=X_MAX)
        self.delta0_refs = []
        for x, f in self.inputs:
            pen = generator.extend_penalty(f, A, B, "constant_one")
            prob = identities.ExitProblem(A, B, Q, x)
            self.delta0_refs.append(
                identities.overshoot_functional_general(pen, sf, prob).value)

    def describe(self):
        return {"inputs": [[x, f.c1, f.c2] for x, f in self.inputs]}

    def round(self, r):
        """One request of every kind, each with a start and penalty from the pool."""
        rng = self.round_rng(r)
        reqs = []
        for command, name, delta in self.KINDS:
            j = int(rng.integers(len(self.inputs)))
            sim_seed = int(rng.integers(1, 2 ** 31))
            x, f = self.inputs[j]
            spec = {"model": model_spec(self.catalog[name]),
                    "penalty": {"f": f.expr, "extension": {"kind": "constant_one"}},
                    "a": A, "b": B, "q": Q, "x": x,
                    "mc": {"paths": CLI_PATHS, "dt": CLI_DT, "seed": sim_seed}}
            if delta is not None:
                spec.update(delta=delta, c=CLI_C)
            kind = f"{command}[{name}{'' if delta != 0.0 else ',delta=0'}]"
            reqs.append(Request(lane_of(name), kind, functools.partial(
                self._request, command, spec, lane_of(name), kind, j)))
        return reqs

    def _request(self, command, spec, lane, kind, j):
        code, text, seconds = run_cli([command, "--spec", "-"], spec)
        seed = spec["mc"]["seed"]
        if code != 0:
            return Result(lane, kind, seconds, False, math.inf, seed)
        out = json.loads(text)
        value, acc = out["value"], out["accuracy"]
        # the penalty lies in (0, 1] below a, so the value lies in [0, 1]
        ok = (math.isfinite(value) and math.isfinite(acc)
              and -MC_SIGMAS * acc <= value <= 1.0 + MC_SIGMAS * acc
              and out["formula_used"] == command.split("-")[1])
        if spec.get("delta") == 0.0:
            ok = ok and abs(value - self.delta0_refs[j]) <= DELTA0_SIGMAS * acc
        return Result(lane, kind, seconds, ok, acc, seed, value=value)


WORKLOADS = {w.name: w for w in (Sweep, MCPassage, CLIModified)}
