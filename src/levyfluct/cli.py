"""Command-line front end.

Subcommands: scale, eval, compare, mc, eval-reflected, eval-refracted.
All take a JSON problem spec (--spec FILE, '-' for stdin) and emit JSON or
CSV on stdout (or --out FILE); diagnostics go to stderr.  Exit codes:
0 success, 2 spec errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import identities as idn
from . import montecarlo as mc
from . import reflected_refracted as rr
from .errors import (ConditionNotMetError, HypothesisViolationError, ModelError,
                     NumericalAccuracyError, RootFindingError, SpecError,
                     UnsupportedCaseError)
from .expressions import compile_expression
from .generator import ExtensionRecipe, check_membership, extend_penalty
from .models import model_from_dict, spec_field, spec_number
from .scale import ScaleFunction

_SPEC_ERRORS = (SpecError, ModelError, KeyError, TypeError, ValueError,
                json.JSONDecodeError)
_NUMERIC_ERRORS = (NumericalAccuracyError, RootFindingError, ConditionNotMetError,
                   HypothesisViolationError, UnsupportedCaseError)


def _load_spec(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec: {exc}")


def _emit(payload, records, args):
    """Write ``payload`` as JSON, or the flat dicts ``records`` as CSV rows under
    their keys (strings as they are, other values by ``repr``)."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf).writerows([list(records[0])] + [
            [v if isinstance(v, str) else repr(v) for v in rec.values()] for rec in records])
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_problem(spec, kind="exit"):
    """The model, the ``kind`` command's problem ("exit", "reflected" or
    "refracted") and a lazy ScaleFunction thunk."""
    model = model_from_dict(spec_field(spec, "model"))
    a, b, q, x = (spec_number(spec, key) for key in ("a", "b", "q", "x"))
    if kind == "refracted":
        prob = rr.RefractedSpec(model=model, delta=spec_number(spec, "delta"),
                                c=spec_number(spec, "c"), a=a, b=b, q=q, x=x)
    elif kind == "reflected":
        prob = rr.ReflectedSpec(model=model, a=a, b=b, q=q, x=x)
    else:
        prob = idn.ExitProblem(a, b, q, x)
    # built on first use: mc and the reflected and refracted identities read
    # it only through W(...) or the scale_function extension
    scale = functools.cache(
        lambda: ScaleFunction(model, q, x_max=max(10.0, b - a + 1.0, b + 1.0)))
    return model, prob, scale


def _penalty(spec, prob, scale):
    """The spec's ``penalty`` block as an ExtendedPenalty on [prob.a, prob.b];
    ``scale()``, called only for W(...) and the scale_function extension,
    gives the ScaleFunction."""
    def expression(text, where):
        if not isinstance(text, str):
            raise SpecError(f"must be an expression string, got {text!r}", field=where)
        return compile_expression(text, w=lambda y: scale().w(y))

    block = spec_field(spec, "penalty")
    f_spec = spec_field(block, "f", "penalty")
    if isinstance(f_spec, dict):
        table = spec_field(f_spec, "table", "penalty.f")
        ys, vals = (spec_number(table, key, "penalty.f.table", array=True)
                    for key in ("y", "values"))
        if ys.ndim != 1 or ys.shape != vals.shape or np.any(np.diff(ys) <= 0):
            raise SpecError("table needs matching increasing y/values arrays",
                            field="penalty.f.table")
        f = lambda y: np.interp(y, ys, vals)
    else:
        f = expression(f_spec, "penalty.f")
    ext = spec_field(block, "extension", "penalty", default={"kind": "constant_one"})
    kind = spec_field(ext, "kind", "penalty.extension")
    if kind == "custom":
        expr = spec_field(ext, "expr", "penalty.extension")
        recipe = ExtensionRecipe(kind="custom",
                                 f_tilde=expression(expr, "penalty.extension.expr"))
    elif kind == "scale_function":
        recipe = ExtensionRecipe(kind="scale_function", scale=scale())
    elif kind in ("zero", "constant_one", "affine_at_a"):
        recipe = ExtensionRecipe(
            kind=kind, slope=spec_number(ext, "slope", "penalty.extension", default=None))
    else:
        raise SpecError(f"unknown extension kind {kind!r}", field="penalty.extension")
    return extend_penalty(f, prob.a, prob.b, recipe)


def _mc_settings(spec, args):
    block = spec_field(spec, "mc", default={})
    paths = (args.paths if args.paths is not None
             else spec_number(block, "paths", "mc", default=20_000, integral=True))
    if paths < 2:
        # one path has no standard error, and none has no estimate
        raise SpecError(f"need at least 2 paths, got {paths}", field="mc.paths")
    seed = (args.seed if args.seed is not None
            else spec_number(block, "seed", "mc", default=0, integral=True))
    if not 0 <= seed < 2 ** 128:
        raise SpecError("must lie in [0, 2**128)", field="mc.seed")
    mode = spec_field(block, "small_jump_mode", "mc", default="auto")
    if mode not in mc.SMALL_JUMP_MODES:
        raise SpecError(f"unknown mode {mode!r}", field="mc.small_jump_mode")
    scheme = mc.SimScheme(
        dt=spec_number(block, "dt", "mc", default=1e-3),
        eps=spec_number(block, "eps", "mc", default=1e-3),
        seed=seed,
        horizon=spec_number(block, "horizon", "mc", default=None),
        small_jump_mode=mode,
    )
    return scheme, paths


def _emit_value(val, args):
    """Emit a GerberShiuValue: its terms nested in JSON, flat in one CSV record."""
    payload = {"value": val.value, "terms": val.terms, "accuracy": val.accuracy,
               "formula_used": val.formula_used, "note": val.condition_note}
    record = {"value": val.value, **val.terms, "formula_used": val.formula_used,
              "accuracy": val.accuracy}
    _emit(payload, [record], args)


def _evaluate_route(formula, penalty, sf, prob):
    if formula == "zero_extension":
        return idn.overshoot_zero_extension(penalty.f, sf, prob)
    if formula not in ("auto", "general", "simple"):
        raise SpecError(f"unknown formula {formula!r}", field="formula")
    membership = check_membership(penalty, sf.model)
    if formula == "auto":
        formula = "simple" if membership.simple_form_admissible else "general"
    route = (idn.overshoot_functional_simple if formula == "simple"
             else idn.overshoot_functional_general)
    return route(penalty, sf, prob, membership=membership)


def cmd_eval(spec, args):
    _, prob, scale = _build_problem(spec)
    penalty = _penalty(spec, prob, scale)
    formula = spec_field(spec, "formula", default="auto")
    _emit_value(_evaluate_route(formula, penalty, scale(), prob), args)
    return 0


def cmd_scale(spec, args):
    model = model_from_dict(spec_field(spec, "model"))
    q = spec_number(spec, "q")
    grid = spec_field(spec, "grid")
    start, stop = (spec_number(grid, key, "grid") for key in ("start", "stop"))
    n = spec_number(grid, "n", "grid", integral=True)
    if n < 1:
        raise SpecError(f"must be a positive integer, got {n}", field="grid.n")
    xs = np.linspace(start, stop, n)
    if np.any(xs <= 0):
        raise SpecError("grid points must be positive", field="grid")
    with np.errstate(over="ignore", invalid="ignore"):
        sf = ScaleFunction(model, q, x_max=float(xs.max()) + 1.0)
        columns = {"x": xs, "W": sf.w(xs), "W_prime": sf.w_prime(xs), "Z": sf.z(xs)}
    bad = ~np.all(np.isfinite(list(columns.values())), axis=0)
    if bad.any():
        raise NumericalAccuracyError(f"W, W' or Z is not finite at grid point x = {xs[bad][0]:g}")
    payload = [dict(zip(columns, map(float, vals))) for vals in zip(*columns.values())]
    print(f"method={sf.method} phi={sf.phi:.12g} "
          f"tolerance_estimate={sf.tolerance_estimate:.3g}", file=sys.stderr)
    _emit(payload, payload, args)
    return 0


def cmd_mc(spec, args):
    model, prob, scale = _build_problem(spec)
    f = _penalty(spec, prob, scale).f
    scheme, paths = _mc_settings(spec, args)
    est = mc.estimate_overshoot_functional(model, f, prob.a, prob.b, prob.q,
                                           prob.x, scheme, paths)
    payload = {"mean": est.mean, "stderr": est.stderr, "n_paths": est.n_paths,
               "capped_fraction": est.capped_fraction}
    _emit(payload, [payload], args)
    return 0


def cmd_compare(spec, args):
    model, prob, scale = _build_problem(spec)
    f = _penalty(spec, prob, scale).f
    sf = scale()
    tol = args.tol if args.tol is not None else 1e-6

    penalties = {kind: extend_penalty(f, prob.a, prob.b, kind)
                 for kind in ("zero", "constant_one", "affine_at_a")}
    reports = {kind: check_membership(p, model) for kind, p in penalties.items()}
    routes = {f"general[{kind}]": idn.overshoot_functional_general(
        p, sf, prob, membership=reports[kind]).value for kind, p in penalties.items()}
    if reports["constant_one"].simple_form_admissible:
        # the simplified identity is the general one wherever it is admissible
        routes["simple"] = routes["general[constant_one]"]
    routes["zero_extension"] = idn.overshoot_zero_extension(f, sf, prob).value
    scheme, paths = _mc_settings(spec, args)
    est = mc.estimate_overshoot_functional(model, f, prob.a, prob.b, prob.q,
                                           prob.x, scheme, paths)
    routes["monte_carlo"] = est.mean

    names = sorted(routes)
    pairs = []
    all_pass = True
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            dev = abs(routes[na] - routes[nb])
            gate = tol
            if "monte_carlo" in (na, nb):
                gate = max(tol, 3.0 * est.stderr)
            ok = dev <= gate
            all_pass &= ok
            pairs.append({"route_a": na, "route_b": nb, "value_a": routes[na],
                          "value_b": routes[nb], "deviation": dev,
                          "tolerance": gate, "pass": ok})
    payload = {"routes": routes, "pairs": pairs, "all_pass": bool(all_pass),
               "mc_stderr": est.stderr}
    _emit(payload, pairs, args)
    return 0


def _modified_common(spec, args, kind):
    _, prob, scale = _build_problem(spec, kind)
    name = spec_field(spec, "provider", default="mc")
    if name != "mc":
        raise SpecError("the closed_form provider takes user-supplied formula callables and "
                        "is only available programmatically" if name == "closed_form"
                        else f"unknown provider {name!r}", field="provider")
    scheme, paths = _mc_settings(spec, args)
    provider = rr.MonteCarloProvider(scheme=scheme, n_paths=paths)
    penalty = _penalty(spec, prob, scale)
    overshoot = rr.refracted_overshoot if kind == "refracted" else rr.reflected_overshoot
    _emit_value(overshoot(penalty, prob, provider), args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levyfluct",
        description="Overshoot functionals for spectrally negative Levy processes")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads: the simulation overrides
    # where _mc_settings runs, the pairwise gate in compare
    mc_flags = {"--seed": int, "--paths": int}
    commands = {
        "scale": (cmd_scale, {}),
        "eval": (cmd_eval, {}),
        "compare": (cmd_compare, {**mc_flags, "--tol": float}),
        "mc": (cmd_mc, mc_flags),
        "eval-reflected": (functools.partial(_modified_common, kind="reflected"), mc_flags),
        "eval-refracted": (functools.partial(_modified_common, kind="refracted"), mc_flags),
    }
    for name, (fn, flags) in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="problem spec JSON ('-' = stdin)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, kind in flags.items():
            p.add_argument(flag, type=kind, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(_load_spec(args.spec), args)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _SPEC_ERRORS as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
