"""The lockstep Nelder-Mead against scipy's sequential one, start by start."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import qqmems
from qqmems._nelder_mead import nelder_mead

OPTIONS = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000, "maxfev": 4000}


def rosen(x):
    """Rosenbrock function of the last axis, for one point or a stack."""
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1 - x[..., :-1]) ** 2, axis=-1)


def _starts(n):
    rng = np.random.default_rng(n)
    x0 = rng.uniform(-2.0, 2.0, (20, n))
    x0[0, 0] = 0.0  # a zero coordinate takes the absolute initial step
    x0[1] = 0.0
    return x0


def _run_both(n, options):
    x0 = _starts(n)
    lock = nelder_mead(rosen, x0, **options)
    seq = [minimize(rosen, x, method="Nelder-Mead", options=options) for x in x0]
    return lock, seq


def _assert_bitwise(lock, seq):
    for m, res in enumerate(seq):
        assert np.array_equal(lock.x[m], res.x), m
        assert lock.fun[m] == res.fun, m
        assert lock.nfev[m] == res.nfev, m
        assert lock.success[m] == res.success, m


@pytest.mark.parametrize("n", [2, 4])
def test_matches_scipy_bitwise(n):
    lock, seq = _run_both(n, OPTIONS)
    assert lock.success.sum() > 0
    _assert_bitwise(lock, seq)


def test_budget_exhausted_runs_report_failure():
    options = dict(OPTIONS, maxfev=50)
    lock, seq = _run_both(4, options)
    exhausted = lock.nfev >= 50
    assert exhausted.any()
    assert not lock.success[exhausted].any()
    _assert_bitwise(lock, seq)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(qqmems.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, qqmems.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
