"""Smoke test: the quick demos run end to end against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 05 and 06 simulate 20 000-path batches and take tens of seconds; they stay out
QUICK = ["01_models_and_exponents.py", "02_scale_functions.py",
         "03_penalties_and_generator.py", "04_overshoot_identities.py"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
