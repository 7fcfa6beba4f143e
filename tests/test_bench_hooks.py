"""Every name the pipeline benchmark patches must exist in the library.

perfbench/spans.py wraps each (module, attribute) in its BOUNDARIES list,
plus SatChecker.sat and cli.solve_standard, by looking the name up; a
missing one makes the traced benchmark run fail before it starts.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.BOUNDARIES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _boundaries()])
def test_boundary_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_sat_checker_and_grounder_resolve():
    refine = importlib.import_module("praline.refine")
    cli = importlib.import_module("praline.cli")
    assert callable(refine.SatChecker.sat)
    assert callable(cli.solve_standard)
