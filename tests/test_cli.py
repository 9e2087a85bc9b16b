"""CLI: spec parsing, output formats, exit codes, golden file."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from levyfluct.cli import main

GOLDEN = Path(__file__).parent / "golden"

JD_MODEL = {"gamma": 0.3, "sigma": 0.6,
            "measure": {"family": "exponential", "intensity": 0.8, "decay": 1.5}}


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


def test_eval_json_output(tmp_path):
    spec = write_spec(tmp_path, "eval.json", {
        "model": JD_MODEL,
        "penalty": {"f": "1", "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "auto"})
    out = tmp_path / "out.json"
    assert run(["eval", "--spec", spec, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["formula_used"] == "simple"
    total = sum(payload["terms"].values())
    assert payload["value"] == pytest.approx(total, rel=1e-12)


def test_eval_golden_file(tmp_path):
    # frozen output of the verified engine; must reproduce byte-for-byte
    spec = write_spec(tmp_path, "eval.json", {
        "model": JD_MODEL,
        "penalty": {"f": "exp(y)", "extension": {"kind": "affine_at_a"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "general"})
    out = tmp_path / "out.json"
    assert run(["eval", "--spec", spec, "--out", str(out)]) == 0
    golden = (GOLDEN / "eval_jump_diffusion.json").read_bytes()
    assert out.read_bytes() == golden


def test_eval_formula_dispatch_error(tmp_path):
    spec = write_spec(tmp_path, "bad.json", {
        "model": {"gamma": 0.35, "sigma": 0.0,
                  "measure": {"family": "tempered_stable", "c": 0.08,
                              "alpha": 1.5, "rho": 1.0}},
        "penalty": {"f": "1", "extension": {"kind": "zero"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "simple"})
    assert run(["eval", "--spec", spec]) == 3


def test_spec_errors_exit_code(tmp_path):
    bad = write_spec(tmp_path, "bad.json", {"model": {"gamma": 1}})
    assert run(["eval", "--spec", bad]) == 2
    missing = tmp_path / "nope.json"
    assert run(["eval", "--spec", str(missing)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{broken")
    assert run(["eval", "--spec", str(notjson)]) == 2


def test_scale_csv_monotone(tmp_path):
    spec = write_spec(tmp_path, "scale.json", {
        "model": JD_MODEL, "q": 0.05,
        "grid": {"start": 0.1, "stop": 3.0, "n": 12}})
    out = tmp_path / "grid.csv"
    assert run(["scale", "--spec", spec, "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    w = [float(r["W"]) for r in rows]
    z = [float(r["Z"]) for r in rows]
    assert all(b > a for a, b in zip(w, w[1:]))
    assert all(b >= a for a, b in zip(z, z[1:]))
    assert all(float(r["W_prime"]) > 0 for r in rows)


def test_mc_reproducible(tmp_path):
    spec = write_spec(tmp_path, "mc.json", {
        "model": JD_MODEL,
        "penalty": {"f": "1"},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0,
        "mc": {"paths": 3000, "seed": 12}})
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert run(["mc", "--spec", spec, "--out", str(out1)]) == 0
    assert run(["mc", "--spec", spec, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert set(payload) == {"mean", "stderr", "n_paths", "capped_fraction"}


@pytest.mark.parametrize("paths", [0, 1])
def test_mc_too_few_paths_is_spec_error(tmp_path, capsys, paths):
    spec = write_spec(tmp_path, "mc.json", {
        "model": JD_MODEL,
        "penalty": {"f": "1"},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0,
        "mc": {"paths": 3000, "seed": 12}})
    assert run(["mc", "--spec", spec, "--paths", str(paths)]) == 2
    assert "mc.paths" in capsys.readouterr().err


def test_compare_routes(tmp_path):
    spec = write_spec(tmp_path, "cmp.json", {
        "model": JD_MODEL,
        "penalty": {"f": "1"},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0,
        "mc": {"paths": 20000, "seed": 3}})
    out = tmp_path / "cmp.json.out"
    assert run(["compare", "--spec", spec, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = sorted(payload["routes"])
    assert payload["all_pass"] is True
    n = len(names)
    assert len(payload["pairs"]) == n * (n - 1) // 2
    # broken tolerance: analytic pairs must fail, rows still rendered
    outc = tmp_path / "cmp.csv"
    assert run(["compare", "--spec", spec, "--format", "csv", "--tol", "0",
                "--out", str(outc)]) == 0
    rows = list(csv.DictReader(outc.read_text().splitlines()))
    assert len(rows) == n * (n - 1) // 2
    assert any(r["pass"] == "False" for r in rows)


def test_compare_takes_simple_from_the_general_route(tmp_path, monkeypatch):
    # where it is admissible the simplified identity is the general identity
    # with the constant_one extension, so compare does not evaluate it again
    import levyfluct.identities as identities

    def refuse(*args, **kwargs):
        raise AssertionError("compare evaluated the simple route")

    monkeypatch.setattr(identities, "overshoot_functional_simple", refuse)
    spec = write_spec(tmp_path, "cmp.json", {
        "model": JD_MODEL, "penalty": {"f": "exp(y)"},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "mc": {"paths": 200, "seed": 3}})
    out = tmp_path / "cmp.out"
    assert run(["compare", "--spec", spec, "--out", str(out)]) == 0
    routes = json.loads(out.read_text())["routes"]
    assert routes["simple"] == routes["general[constant_one]"]


@pytest.mark.parametrize("command, columns", [
    ("eval", ["value", "boundary_term", "integral_term", "creeping_term", "formula_used",
              "accuracy"]),
    ("mc", ["mean", "stderr", "n_paths", "capped_fraction"])])
def test_csv_record_matches_json(tmp_path, command, columns):
    spec = write_spec(tmp_path, "spec.json", {
        "model": JD_MODEL,
        "penalty": {"f": "exp(y)", "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "mc": {"paths": 300, "seed": 4}})
    outj, outc = tmp_path / "out.json", tmp_path / "out.csv"
    assert run([command, "--spec", spec, "--out", str(outj)]) == 0
    assert run([command, "--spec", spec, "--format", "csv", "--out", str(outc)]) == 0
    payload = json.loads(outj.read_text())
    flat = {**payload.pop("terms", {}), **payload}
    reader = csv.DictReader(outc.read_text().splitlines())
    assert reader.fieldnames == columns
    (row,) = list(reader)
    for key in columns:
        want = flat[key]
        assert (row[key] if isinstance(want, str) else float(row[key])) == want, key


def test_eval_refracted_delta_zero_matches_eval(tmp_path):
    base = {
        "model": JD_MODEL,
        "penalty": {"f": "1", "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0}
    spec_plain = write_spec(tmp_path, "plain.json", dict(base, formula="general"))
    spec_refr = write_spec(tmp_path, "refr.json",
                           dict(base, delta=0.0, c=1.0,
                                mc={"paths": 30000, "seed": 9}))
    out1, out2 = tmp_path / "p.json", tmp_path / "r.json"
    assert run(["eval", "--spec", spec_plain, "--out", str(out1)]) == 0
    assert run(["eval-refracted", "--spec", spec_refr, "--out", str(out2)]) == 0
    v1 = json.loads(out1.read_text())
    v2 = json.loads(out2.read_text())
    assert abs(v1["value"] - v2["value"]) < 3.0 * (v2["accuracy"] + 1e-4)


def test_eval_reflected_runs(tmp_path):
    spec = write_spec(tmp_path, "refl.json", {
        "model": {"gamma": -0.1, "sigma": 1.0, "measure": {"family": "none"}},
        "penalty": {"f": "1", "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 1.5, "q": 0.1, "x": 0.75,
        "mc": {"paths": 5000, "seed": 4}})
    out = tmp_path / "refl.out"
    assert run(["eval-reflected", "--spec", spec, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 < payload["value"] <= 1.0


def test_table_penalty(tmp_path):
    # tabulated penalty: linear interpolation of (y, f(y)) pairs
    spec = write_spec(tmp_path, "tab.json", {
        "model": JD_MODEL,
        "penalty": {"f": {"table": {"y": [-5.0, 0.0], "values": [1.0, 1.0]}},
                    "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "auto"})
    out = tmp_path / "tab.out"
    assert run(["eval", "--spec", spec, "--out", str(out)]) == 0
    tabled = json.loads(out.read_text())["value"]
    spec1 = write_spec(tmp_path, "one.json", {
        "model": JD_MODEL,
        "penalty": {"f": "1", "extension": {"kind": "constant_one"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "auto"})
    out1 = tmp_path / "one.out"
    assert run(["eval", "--spec", spec1, "--out", str(out1)]) == 0
    assert tabled == pytest.approx(json.loads(out1.read_text())["value"], abs=1e-10)
    bad = write_spec(tmp_path, "bad_tab.json", {
        "model": JD_MODEL,
        "penalty": {"f": {"table": {"y": [0.0, -1.0], "values": [1.0, 1.0]}}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0})
    assert run(["eval", "--spec", bad]) == 2


def test_table_measure_spec(tmp_path):
    spec = write_spec(tmp_path, "tblm.json", {
        "model": {"gamma": 1.0, "sigma": 0.0,
                  "measure": {"family": "table", "interpolation": "log-linear",
                              "theta": [0.05, 0.5, 1.0, 3.0, 8.0],
                              "pi": [0.7, 0.4, 0.25, 0.05, 0.001]}},
        "q": 0.05, "grid": {"start": 0.5, "stop": 2.0, "n": 4}})
    assert run(["scale", "--spec", spec]) == 0
    bad = write_spec(tmp_path, "tblm_bad.json", {
        "model": {"gamma": 1.0, "sigma": 0.0,
                  "measure": {"family": "table", "interpolation": "cubic",
                              "theta": [0.05, 1.0], "pi": [0.7, 0.1]}},
        "q": 0.05, "grid": {"start": 0.5, "stop": 2.0, "n": 4}})
    assert run(["scale", "--spec", bad]) == 2


def test_closed_form_provider_is_programmatic_only(tmp_path):
    spec = write_spec(tmp_path, "refl.json", {
        "model": {"gamma": -0.1, "sigma": 1.0, "measure": {"family": "none"}},
        "penalty": {"f": "1"},
        "a": 0.0, "b": 1.5, "q": 0.1, "x": 0.75,
        "provider": "closed_form"})
    assert run(["eval-reflected", "--spec", spec]) == 2


def test_scale_descending_grid_reverses_ascending_rows(tmp_path):
    # the range is sized from the largest grid point, whichever end it is
    model = {"gamma": 0.35, "sigma": 0.0, "measure": {
        "family": "tempered_stable", "c": 0.08, "alpha": 1.5, "rho": 1.0}}
    rows = {}
    for name, (start, stop) in {"up": (1.0, 5.0), "down": (5.0, 1.0)}.items():
        spec = write_spec(tmp_path, f"{name}.json", {
            "model": model, "q": 0.05, "grid": {"start": start, "stop": stop, "n": 5}})
        out = tmp_path / f"{name}.out"
        assert run(["scale", "--spec", spec, "--out", str(out)]) == 0
        rows[name] = json.loads(out.read_text())
    assert rows["down"] == rows["up"][::-1]


def test_scale_grid_without_points_is_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "scale.json", {
        "model": JD_MODEL, "q": 0.05,
        "grid": {"start": 0.1, "stop": 3.0, "n": 0}})
    assert run(["scale", "--spec", spec]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered in power:RuntimeWarning")
def test_mc_nonfinite_penalty_is_numerical_failure(tmp_path, capsys):
    # sqrt is NaN at every exit strictly below a = 0
    spec = write_spec(tmp_path, "mc.json", {
        "model": JD_MODEL,
        "penalty": {"f": "y**0.5"},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0,
        "mc": {"paths": 2000, "seed": 12}})
    assert run(["mc", "--spec", spec]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "penalty f(" in captured.err


def eval_value(tmp_path, name, **fields):
    payload = {"model": JD_MODEL, "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0}
    payload.update(fields)
    spec = write_spec(tmp_path, name + ".json", payload)
    out = tmp_path / (name + ".out")
    assert run(["eval", "--spec", spec, "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_eval_custom_extension_from_expression_only(tmp_path):
    # no derivative callables: the extension's derivatives come from differences
    custom = eval_value(tmp_path, "custom", formula="general", penalty={
        "f": "exp(y)", "extension": {"kind": "custom", "expr": "exp(y)"}})
    stock = eval_value(tmp_path, "stock", formula="general", penalty={
        "f": "exp(y)", "extension": {"kind": "constant_one"}})
    assert custom["value"] == pytest.approx(stock["value"], abs=1e-4)


def test_eval_scale_function_extension_matches_constant_one(tmp_path):
    scale = eval_value(tmp_path, "scale", penalty={
        "f": "1", "extension": {"kind": "scale_function"}})
    stock = eval_value(tmp_path, "stock", penalty={
        "f": "1", "extension": {"kind": "constant_one"}})
    assert scale["formula_used"] == "general"
    assert scale["value"] == pytest.approx(stock["value"], abs=1e-6)


def test_eval_zero_extension_formula(tmp_path):
    zero = eval_value(tmp_path, "zero", formula="zero_extension", penalty={"f": "1"})
    stock = eval_value(tmp_path, "stock", penalty={
        "f": "1", "extension": {"kind": "constant_one"}})
    assert zero["formula_used"] == "zero_extension"
    assert zero["value"] == pytest.approx(stock["value"], abs=1e-6)


def test_eval_reflected_unknown_extension_kind(tmp_path, capsys):
    spec = write_spec(tmp_path, "refl.json", {
        "model": {"gamma": -0.1, "sigma": 1.0, "measure": {"family": "none"}},
        "penalty": {"f": "1", "extension": {"kind": "no_such_kind"}},
        "a": 0.0, "b": 1.5, "q": 0.1, "x": 0.75,
        "mc": {"paths": 100, "seed": 4}})
    assert run(["eval-reflected", "--spec", spec]) == 2
    assert "penalty.extension" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_eval_divergent_jump_tail_is_numerical_failure(tmp_path, capsys):
    spec = write_spec(tmp_path, "div.json", {
        "model": JD_MODEL, "penalty": {"f": "exp(-2*y)", "extension": {"kind": "zero"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "general"})
    assert run(["eval", "--spec", spec]) == 3
    assert "divergent jump-tail integral at z = " in capsys.readouterr().err


def test_refracted_without_w_builds_no_scale_function(tmp_path, monkeypatch):
    import levyfluct.cli as cli

    built = []

    class Counting(cli.ScaleFunction):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "ScaleFunction", Counting)
    base = {"model": JD_MODEL, "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0,
            "delta": 0.1, "c": 1.0, "mc": {"paths": 200, "dt": 4e-3, "seed": 5}}
    plain = write_spec(tmp_path, "plain.json", dict(base, penalty={"f": "exp(y)"}))
    assert run(["eval-refracted", "--spec", plain]) == 0
    assert built == []
    with_w = write_spec(tmp_path, "w.json", dict(base, penalty={"f": "1 + 0*W(1)"}))
    assert run(["eval-refracted", "--spec", with_w]) == 0
    assert len(built) == 1


# non-finite inputs are spec errors (exit 2), never NaN output or a traceback

NONFINITE_BASE = {"model": JD_MODEL, "penalty": {"f": "1"},
                  "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0}


def test_refracted_nan_delta_is_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "refr.json", dict(NONFINITE_BASE, delta=float("nan"), c=1.0,
                                                  mc={"paths": 200, "seed": 1}))
    assert run(["eval-refracted", "--spec", spec]) == 2
    assert "delta" in capsys.readouterr().err


def test_mc_infinite_horizon_is_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "mc.json", dict(
        NONFINITE_BASE, mc={"paths": 200, "seed": 1, "horizon": float("inf")}))
    assert run(["mc", "--spec", spec]) == 2
    assert "horizon" in capsys.readouterr().err


def test_mc_nan_eps_is_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "mc.json", dict(
        NONFINITE_BASE, mc={"paths": 200, "seed": 1, "eps": float("nan")}))
    assert run(["mc", "--spec", spec]) == 2
    assert "eps" in capsys.readouterr().err


def test_eval_nan_q_is_spec_error(tmp_path, capsys):
    spec = write_spec(tmp_path, "eval.json", dict(NONFINITE_BASE, q=float("nan")))
    assert run(["eval", "--spec", spec]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("q", [float("nan"), float("inf")])
def test_scale_nonfinite_q_is_spec_error(tmp_path, capsys, q):
    spec = write_spec(tmp_path, "scale.json", {
        "model": dict(JD_MODEL, measure={"family": "tempered_stable", "c": 0.08,
                                         "alpha": 1.5, "rho": 1.0}),
        "q": q, "grid": {"start": 0.1, "stop": 3.0, "n": 5}})
    assert run(["scale", "--spec", spec]) == 2
    assert "finite" in capsys.readouterr().err


# spec errors name their field: exit 2, nothing on stdout

def spec_with(**fields):
    """NONFINITE_BASE with ``fields`` set, and those given as None removed."""
    spec = dict(NONFINITE_BASE, **fields)
    return {key: val for key, val in spec.items() if val is not None}


def jd_measure(**measure):
    return dict(JD_MODEL, measure=measure)


@pytest.mark.parametrize("command, spec, field", [
    ("eval", spec_with(a=None), "spec"),
    ("eval", spec_with(penalty={"f": 1.0}), "penalty.f"),
    ("eval", spec_with(formula="bogus"), "formula"),
    ("scale", {"model": JD_MODEL, "q": 0.05, "grid": {"start": 0.0, "stop": 1.0, "n": 3}},
     "grid"),
    ("scale", {"model": JD_MODEL, "q": 0.05,
               "grid": {"start": 0.1, "stop": float("inf"), "n": 3}}, "grid.stop"),
    ("scale", {"model": JD_MODEL, "q": 0.05,
               "grid": {"start": float("nan"), "stop": 1.0, "n": 3}}, "grid.start"),
    ("scale", {"model": JD_MODEL, "q": 0.05, "grid": {"start": 0.1, "stop": 1.0, "n": 2.7}},
     "grid.n"),
    ("scale", {"model": JD_MODEL, "q": 0.05, "grid": {"start": 0.1, "stop": 1.0, "n": -1}},
     "grid.n"),
    ("eval-reflected", spec_with(provider="bogus"), "provider"),
    ("eval", spec_with(penalty={"f": "exp("}), "expr"),
    ("eval", spec_with(penalty={"f": "max(y, 1, k=2)"}), "expr"),
    ("eval", spec_with(penalty={"f": "W(y, y)"}), "expr"),
    ("eval", spec_with(model=[0.3, 0.6]), "model"),
    ("eval", spec_with(model=jd_measure(intensity=0.8, decay=1.5)), "measure.family"),
    ("eval", spec_with(model=jd_measure(family="exponential", intensity=-1, decay=1.5)),
     "measure[exponential]"),
    ("eval", spec_with(a=False), "a"),
    ("eval", spec_with(x="1.0"), "x"),
    ("eval", spec_with(a=-10 ** 400), "a"),
    ("eval", spec_with(model=dict(JD_MODEL, gamma=float("nan"))), "model.gamma"),
    ("mc", spec_with(model=dict(JD_MODEL, gamma=float("nan")),
                     mc={"paths": 200, "seed": 1, "horizon": 5.0}), "model.gamma"),
    ("eval", spec_with(model=jd_measure(family="exponential", intensity="0.8", decay=1.5)),
     "measure[exponential].intensity"),
    ("eval", spec_with(model={"gamma": 0.35, "sigma": 0.0, "measure": {
        "family": "tempered_stable", "c": 0.08, "alpha": 1.5, "rho": float("nan")}}),
     "measure[tempered_stable].rho"),
    ("eval", spec_with(penalty={"f": {"table": {"y": [-5.0, -1.0, 0.0],
                                                "values": [0.1, "0.5", 1.0]}}}),
     "penalty.f.table.values"),
    ("eval", spec_with(penalty={"f": "1", "extension": {"kind": "affine_at_a", "slope": True}}),
     "penalty.extension.slope"),
    ("eval-refracted", spec_with(delta="0.1", c=1.0), "delta"),
    ("eval", spec_with(penalty=3), "penalty"),
    ("eval", spec_with(penalty={"f": {"table": 5}}), "penalty.f.table"),
    ("eval", spec_with(penalty={"f": "1", "extension": "zero"}), "penalty.extension"),
    ("scale", {"model": JD_MODEL, "q": 0.05, "grid": 5}, "grid"),
    ("mc", spec_with(mc=[3]), "mc"),
    ("eval", spec_with(model=None), "spec"),
    ("eval", spec_with(penalty=None), "spec"),
    ("eval", spec_with(penalty={"extension": {"kind": "zero"}}), "penalty"),
    ("eval", spec_with(penalty={"f": "1", "extension": {"slope": 1.0}}), "penalty.extension"),
    ("eval", spec_with(penalty={"f": "1", "extension": {"kind": "custom"}}),
     "penalty.extension"),
    ("eval", spec_with(penalty={"f": "1", "extension": {"kind": "custom", "expr": 5}}),
     "penalty.extension.expr"),
    ("mc", spec_with(mc={"paths": 200, "seed": 1, "small_jump_mode": "bogus"}),
     "mc.small_jump_mode"),
    ("mc", spec_with(penalty={"f": "1", "extension": {"kind": "bogus"}},
                     mc={"paths": 200, "seed": 1, "horizon": 5.0}), "penalty.extension"),
    ("compare", spec_with(penalty={"f": "1", "extension": {"kind": "bogus"}},
                          mc={"paths": 200, "seed": 1, "horizon": 5.0}), "penalty.extension"),
], ids=["missing-a", "f-number", "formula", "grid-at-0", "grid-stop-inf", "grid-start-nan",
        "grid-n-fraction", "grid-n-negative", "provider", "expr-unclosed", "expr-keyword",
        "expr-w-arity", "model-list", "no-family", "negative-intensity", "a-bool", "x-string",
        "a-too-large", "gamma-nan", "mc-gamma-nan", "intensity-string", "tempered-rho-nan",
        "table-value-string", "slope-bool", "delta-string", "penalty-number",
        "table-number", "extension-string", "grid-number", "mc-list", "missing-model",
        "missing-penalty", "missing-f", "missing-kind", "custom-without-expr",
        "expr-number", "small-jump-mode", "mc-extension-kind", "compare-extension-kind"])
def test_spec_error_names_its_field(tmp_path, capsys, command, spec, field):
    path = write_spec(tmp_path, "spec.json", spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--spec", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"spec error: {field}: " in captured.err
    assert [str(w.message) for w in caught] == []


def test_python_m_levyfluct_runs_the_cli():
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    spec = {"model": JD_MODEL, "q": 0.05, "grid": {"start": 0.1, "stop": 1.0, "n": 3}}
    proc = subprocess.run([sys.executable, "-m", "levyfluct", "scale", "--spec", "-"],
                          input=json.dumps(spec), capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)) == 3


# mc settings of the wrong type are spec errors that name their field

@pytest.mark.parametrize("field, value", [("seed", 1.5), ("paths", 200.5), ("dt", "0.004"),
                                          ("eps", "small"), ("horizon", "5"), ("seed", -3)])
def test_mc_setting_of_wrong_type_is_spec_error(tmp_path, capsys, field, value):
    settings = {"paths": 200, "seed": 1, "horizon": 5.0}
    settings[field] = value
    spec = write_spec(tmp_path, "mc.json", dict(NONFINITE_BASE, mc=settings))
    assert run(["mc", "--spec", spec]) == 2
    assert f"mc.{field}" in capsys.readouterr().err


def test_mc_flags_override_the_spec_and_a_dash_reads_stdin(tmp_path, monkeypatch, capsys):
    settings = {"dt": 4e-3, "horizon": 5.0}
    flagged = write_spec(tmp_path, "flags.json",
                         dict(NONFINITE_BASE, mc=dict(settings, paths=5000, seed=1)))
    assert run(["mc", "--spec", flagged, "--seed", "7", "--paths", "300"]) == 0
    by_flags = capsys.readouterr().out
    assert json.loads(by_flags)["n_paths"] == 300
    spec = dict(NONFINITE_BASE, mc=dict(settings, paths=300, seed=7))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
    assert run(["mc", "--spec", "-"]) == 0
    assert capsys.readouterr().out == by_flags


def test_mc_integral_float_seed_runs_as_integer(tmp_path):
    outs = []
    for seed in (3, 3.0):
        spec = write_spec(tmp_path, "mc.json", dict(
            NONFINITE_BASE, mc={"paths": 200, "seed": seed, "horizon": 5.0}))
        out = tmp_path / "out.json"
        assert run(["mc", "--spec", spec, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_compare_checks_each_penalty_once(tmp_path, monkeypatch):
    import levyfluct.cli as cli
    import levyfluct.identities as identities

    calls = []

    def counting(penalty, model, _check=cli.check_membership):
        calls.append(penalty.recipe)
        return _check(penalty, model)

    monkeypatch.setattr(cli, "check_membership", counting)
    monkeypatch.setattr(identities, "check_membership", counting)
    spec = write_spec(tmp_path, "cmp.json", dict(NONFINITE_BASE, mc={"paths": 200, "seed": 2}))
    assert run(["compare", "--spec", spec, "--out", str(tmp_path / "out.json")]) == 0
    assert sorted(calls) == ["affine_at_a", "constant_one", "zero"]


@pytest.mark.parametrize("command, flag", [
    ("scale", "--seed"), ("eval", "--paths"), ("eval", "--tol"), ("mc", "--tol"),
    ("eval-reflected", "--tol"), ("eval-refracted", "--tol")])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    spec = write_spec(tmp_path, "spec.json", {})
    with pytest.raises(SystemExit) as exc:
        run([command, "--spec", spec, flag, "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_import_and_golden_eval_leave_heavy_scipy_unloaded(tmp_path):
    # the package imports only scipy.special and scipy.linalg.lapack; scalar
    # QUADPACK (scipy.integrate) loads on first use, and the golden eval makes none
    import levyfluct

    spec = write_spec(tmp_path, "eval.json", {
        "model": JD_MODEL,
        "penalty": {"f": "exp(y)", "extension": {"kind": "affine_at_a"}},
        "a": 0.0, "b": 2.0, "q": 0.05, "x": 1.0, "formula": "general"})
    out = tmp_path / "out.json"
    heavy = ["scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.sparse"]
    code = ("import json, sys\n"
            "import levyfluct\n"
            "from levyfluct import cli\n"
            f"code = cli.main(['eval', '--spec', {spec!r}, '--out', {str(out)!r}])\n"
            f"print(json.dumps([code, [m for m in {heavy!r} if m in sys.modules]]))\n")
    src = str(Path(levyfluct.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert out.read_bytes() == (GOLDEN / "eval_jump_diffusion.json").read_bytes()
