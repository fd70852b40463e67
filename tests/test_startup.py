"""Start-up cost: the CLI loads scipy's assignment solver and nothing else of scipy."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import bnodematch
from bnodematch import matcher

SRC = str(Path(bnodematch.__file__).resolve().parents[1])


def _modules_after(statement: str) -> list[str]:
    """The names in ``sys.modules`` after ``statement`` runs in a fresh interpreter."""
    script = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_importing_the_cli_loads_no_heavy_scipy_module():
    modules = _modules_after("import bnodematch.cli")
    assert [name for name in modules if name.split(".")[0] == "scipy"] == ["scipy.optimize._lsap"]
    assert "importlib.metadata" not in modules


def test_scipy_optimize_imported_after_the_cli_exports_the_same_solver():
    # pytest may have imported scipy before bnodematch, so check the order in a fresh interpreter
    script = ("import bnodematch.cli, scipy.optimize; from bnodematch import matcher; "
              "print(matcher.linear_sum_assignment is scipy.optimize.linear_sum_assignment)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "True\n"


def test_the_solver_is_the_one_scipy_optimize_exports():
    import scipy.optimize

    assert matcher.linear_sum_assignment is scipy.optimize.linear_sum_assignment


def test_the_solver_agrees_with_scipy_optimize_on_tied_rectangular_matrices():
    import scipy.optimize

    rng = np.random.default_rng(20141031)
    for _ in range(300):
        shape = rng.integers(1, 12, size=2)
        # few distinct values, so most optima are tied
        cost = rng.integers(0, 4, size=shape)
        rows, cols = matcher.linear_sum_assignment(cost)
        ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)
