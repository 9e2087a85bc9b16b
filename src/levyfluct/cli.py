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
from .models import model_from_dict
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


def _require(spec, key, where="spec"):
    if key not in spec:
        raise SpecError(f"missing field {key!r}", field=where)
    return spec[key]


def _build_problem(spec):
    model = model_from_dict(_require(spec, "model"))
    a = float(_require(spec, "a"))
    b = float(_require(spec, "b"))
    q = float(_require(spec, "q"))
    x = float(_require(spec, "x"))
    prob = idn.ExitProblem(a, b, q, x)
    # built on first use: mc and the reflected and refracted identities read
    # it only through W(...) or the scale_function extension
    scale = functools.cache(
        lambda: ScaleFunction(model, q, x_max=max(10.0, b - a + 1.0, b + 1.0)))
    return model, prob, scale


def _lazy_w(scale):
    return lambda y: scale().w(y)


def _penalty_callable(f_spec, scale):
    if isinstance(f_spec, str):
        return compile_expression(f_spec, w=_lazy_w(scale))
    if isinstance(f_spec, dict) and "table" in f_spec:
        table = f_spec["table"]
        ys = np.asarray(_require(table, "y", "penalty.f.table"), dtype=float)
        vals = np.asarray(_require(table, "values", "penalty.f.table"), dtype=float)
        if ys.ndim != 1 or ys.shape != vals.shape or np.any(np.diff(ys) <= 0):
            raise SpecError("table needs matching increasing y/values arrays",
                            field="penalty.f.table")
        return lambda y: np.interp(y, ys, vals)
    raise SpecError("penalty f must be an expression string or {'table': ...}",
                    field="penalty.f")


def _penalty_f(spec, scale):
    """The penalty f of the spec's ``penalty.f`` field; ``scale()`` gives the ScaleFunction."""
    return _penalty_callable(_require(_require(spec, "penalty"), "f", "penalty"), scale)


def _build_penalty(spec, prob, scale):
    f = _penalty_f(spec, scale)
    ext = spec["penalty"].get("extension", {"kind": "constant_one"})
    kind = _require(ext, "kind", "penalty.extension")
    if kind == "custom":
        expr = _require(ext, "expr", "penalty.extension")
        recipe = ExtensionRecipe(kind="custom",
                                 f_tilde=compile_expression(expr, w=_lazy_w(scale)))
    elif kind == "scale_function":
        recipe = ExtensionRecipe(kind="scale_function", scale=scale())
    elif kind in ("zero", "constant_one", "affine_at_a"):
        recipe = ExtensionRecipe(kind=kind, slope=ext.get("slope"))
    else:
        raise SpecError(f"unknown extension kind {kind!r}", field="penalty.extension")
    return extend_penalty(f, prob.a, prob.b, recipe)


def _mc_number(block, key, default, integral=False):
    """``mc.<key>`` as a float, or an int when ``integral``; anything else is a spec error."""
    val = block.get(key, default)
    if val is None and default is None:
        return None
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or (integral and not float(val).is_integer())):
        kind = "an integer" if integral else "a number"
        raise SpecError(f"must be {kind}, got {val!r}", field=f"mc.{key}")
    return int(val) if integral else float(val)


def _mc_settings(spec, args):
    block = dict(spec.get("mc", {}))
    if args.paths is not None:
        block["paths"] = args.paths
    if args.seed is not None:
        block["seed"] = args.seed
    paths = _mc_number(block, "paths", 20_000, integral=True)
    if paths < 2:
        # one path has no standard error, and none has no estimate
        raise SpecError(f"need at least 2 paths, got {paths}", field="mc.paths")
    scheme = mc.SimScheme(
        dt=_mc_number(block, "dt", 1e-3),
        eps=_mc_number(block, "eps", 1e-3),
        seed=_mc_number(block, "seed", 0, integral=True),
        horizon=_mc_number(block, "horizon", None),
        small_jump_mode=block.get("small_jump_mode", "auto"),
    )
    return scheme, paths


def _emit_value(val, args):
    """Emit a GerberShiuValue: its terms nested in JSON, flat in one CSV record."""
    payload = {"value": val.value, "terms": val.terms, "accuracy": val.accuracy,
               "formula_used": val.formula_used, "note": val.condition_note}
    record = {"value": val.value, **val.terms, "formula_used": val.formula_used,
              "accuracy": val.accuracy}
    _emit(payload, [record], args)


def _evaluate_route(formula, penalty, scale, prob, spec):
    sf = scale()
    membership = check_membership(penalty, sf.model)
    if formula == "auto":
        formula = "simple" if membership.simple_form_admissible else "general"
    if formula == "general":
        return idn.overshoot_functional_general(penalty, sf, prob, membership=membership)
    if formula == "simple":
        return idn.overshoot_functional_simple(penalty, sf, prob, membership=membership)
    if formula == "zero_extension":
        return idn.overshoot_zero_extension(_penalty_f(spec, scale), sf, prob)
    raise SpecError(f"unknown formula {formula!r}", field="formula")


def cmd_eval(args):
    spec = _load_spec(args.spec)
    model, prob, scale = _build_problem(spec)
    penalty = _build_penalty(spec, prob, scale)
    formula = spec.get("formula", "auto")
    _emit_value(_evaluate_route(formula, penalty, scale, prob, spec), args)
    return 0


def cmd_scale(args):
    spec = _load_spec(args.spec)
    model = model_from_dict(_require(spec, "model"))
    q = float(_require(spec, "q"))
    grid = _require(spec, "grid")
    xs = np.linspace(float(_require(grid, "start", "grid")),
                     float(_require(grid, "stop", "grid")),
                     int(_require(grid, "n", "grid")))
    if xs.size == 0:
        raise SpecError("grid needs n >= 1 points", field="grid")
    if np.any(xs <= 0):
        raise SpecError("grid points must be positive", field="grid")
    sf = ScaleFunction(model, q, x_max=float(xs[-1]) + 1.0)
    columns = {"x": xs, "W": sf.w(xs), "W_prime": sf.w_prime(xs), "Z": sf.z(xs)}
    payload = [dict(zip(columns, map(float, vals))) for vals in zip(*columns.values())]
    print(f"method={sf.method} phi={sf.phi:.12g} "
          f"tolerance_estimate={sf.tolerance_estimate:.3g}", file=sys.stderr)
    _emit(payload, payload, args)
    return 0


def cmd_mc(args):
    spec = _load_spec(args.spec)
    model, prob, scale = _build_problem(spec)
    f = _penalty_f(spec, scale)
    scheme, paths = _mc_settings(spec, args)
    est = mc.estimate_overshoot_functional(model, f, prob.a, prob.b, prob.q,
                                           prob.x, scheme, paths)
    payload = {"mean": est.mean, "stderr": est.stderr, "n_paths": est.n_paths,
               "capped_fraction": est.capped_fraction}
    _emit(payload, [payload], args)
    return 0


def cmd_compare(args):
    spec = _load_spec(args.spec)
    model, prob, scale = _build_problem(spec)
    sf = scale()
    f = _penalty_f(spec, scale)
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


def _modified_common(args, refracted):
    spec = _load_spec(args.spec)
    model, prob, scale = _build_problem(spec)
    provider_name = spec.get("provider", "mc")
    if provider_name == "closed_form":
        raise SpecError("the closed_form provider takes user-supplied formula "
                        "callables and is only available programmatically",
                        field="provider")
    if provider_name != "mc":
        raise SpecError(f"unknown provider {provider_name!r}", field="provider")
    scheme, paths = _mc_settings(spec, args)
    provider = rr.MonteCarloProvider(scheme=scheme, n_paths=paths)
    penalty = _build_penalty(spec, prob, scale)
    a, b, q, x = prob.a, prob.b, prob.q, prob.x
    if refracted:
        rspec = rr.RefractedSpec(model=model, delta=float(_require(spec, "delta")),
                                 c=float(_require(spec, "c")), a=a, b=b, q=q, x=x)
        val = rr.refracted_overshoot(penalty, rspec, provider)
    else:
        rspec = rr.ReflectedSpec(model=model, b=b, a=a, q=q, x=x)
        val = rr.reflected_overshoot(penalty, rspec, provider)
    _emit_value(val, args)
    return 0


def cmd_eval_reflected(args):
    return _modified_common(args, refracted=False)


def cmd_eval_refracted(args):
    return _modified_common(args, refracted=True)


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
        "eval-reflected": (cmd_eval_reflected, mc_flags),
        "eval-refracted": (cmd_eval_refracted, mc_flags),
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
        return args.fn(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except _SPEC_ERRORS as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
