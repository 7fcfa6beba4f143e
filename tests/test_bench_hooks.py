"""Every name the pipeline benchmark patches must exist in the library.

perfbench/spans.py wraps each (module, attribute) in its BOUNDARIES list,
plus SatChecker.sat and cli.solve_standard, by looking the name up; a
missing one makes the traced benchmark run fail before it starts.
perfbench/run.py imports the kernel lane names for its environment report.
perfbench/checks.py builds its own oracle pipeline from library names; a
change to one of them fails its output check.
"""

import importlib
import importlib.util
import pathlib
from math import comb

import numpy as np
import pytest

from praline.cli import solve_source

from conftest import ROADS

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _boundaries():
    return _load("spans").BOUNDARIES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _boundaries()])
def test_boundary_resolves(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_sat_checker_and_grounder_resolve():
    refine = importlib.import_module("praline.refine")
    cli = importlib.import_module("praline.cli")
    assert callable(refine.SatChecker.sat)
    assert callable(cli.solve_standard)


def test_kernel_lane_names_resolve():
    kernels = importlib.import_module("praline.kernels")
    assert kernels.HAS_NUMBA is False
    assert kernels.active_lane() == "numpy"


def test_checker_samples_stay_inside_the_exact_intervals():
    samples = _load("checks").sample_probs(ROADS, 3, [0, 0])
    exact = {f.atom: f for f in solve_source(ROADS, mode="exact").facts}
    assert set(samples) == set(exact) == {"path(1,7)", "path(1,5)",
                                          "path(1,6)"}
    for atom, probs in samples.items():
        assert len(probs) == 3
        assert exact[atom].lower - 1e-9 <= probs.min()
        assert probs.max() <= exact[atom].upper + 1e-9


def test_support_count_is_one_row_per_basis(monkeypatch):
    # spans.py counts `kernels.supports` as len(args[2]) of solve_supports
    optimizer = importlib.import_module("praline.optimizer")
    solve = optimizer.solve_supports
    calls = []

    def spy(a, b, combos):
        calls.append((np.shape(a), np.asarray(combos)))
        return solve(a, b, combos)

    monkeypatch.setattr(optimizer, "solve_supports", spy)
    solve_source(ROADS, mode="exact")
    assert calls
    for (r, d), combos in calls:
        # the reduced system has r rows over the class's d columns; each
        # basis is a distinct set of r of those columns
        assert combos.shape == (comb(d, r), r)
        bases = {frozenset(row) for row in combos.tolist()}
        assert len(bases) == comb(d, r)
        assert all(len(s) == r and s <= set(range(d)) for s in bases)
