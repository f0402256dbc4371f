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


@pytest.mark.parametrize("maxfev", [1, 4])
def test_budget_below_the_initial_simplex_matches_scipy_bitwise(maxfev):
    # n + 1 = 5 vertices, of which only the first maxfev are evaluated; the
    # rest keep the value inf, as in scipy, and no start takes a step
    lock, seq = _run_both(4, dict(OPTIONS, maxfev=maxfev))
    assert (lock.nfev == maxfev).all() and not lock.success.any()
    _assert_bitwise(lock, seq)


@pytest.mark.parametrize("start, maxfev", [(2, 59), (2, 60), (2, 61), (2, 62), (11, 470)])
def test_budget_running_out_mid_shrink_matches_scipy_bitwise(start, maxfev):
    # Start 2 of _starts(4) shrinks once it has made 57 evaluations and its
    # two trial points, so budgets of 59 to 62 end inside that shrink after 0
    # to 3 of its 4 evaluations; start 11 shrinks after 466, and at 470 the
    # vertex it moves last but cannot evaluate is below every other value.
    # scipy leaves that vertex moved with its old value, one stale entry of
    # its final simplex.
    lock, seq = _run_both(4, dict(OPTIONS, maxfev=maxfev))
    sim, fsim = seq[start].final_simplex
    assert np.count_nonzero(rosen(sim) != fsim) == 1 and lock.nfev[start] == maxfev
    _assert_bitwise(lock, seq)


def test_a_completed_shrink_counts_toward_maxiter():
    # Start 2's 34th iteration is a shrink; at maxiter 35 it must count for
    # the iteration cap to stop the run where scipy stops.
    lock, seq = _run_both(4, dict(OPTIONS, maxiter=35))
    assert seq[2].nit == 35 and not seq[2].success
    _assert_bitwise(lock, seq)


def rosen_args(x, a, b):
    """Rosenbrock with minimum at (a, a^2, ...) and curvature b; a and b are
    scalars for one point or (K,) rows for a (K, N) stack."""
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return np.sum(b * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (a - x[..., :-1]) ** 2, axis=-1)


@pytest.mark.parametrize("n, maxfev", [(2, 4000), (4, 4000), (4, 50)])
def test_per_start_args_match_separate_runs_bitwise(n, maxfev):
    options = dict(OPTIONS, maxfev=maxfev)
    x0 = _starts(n)
    rng = np.random.default_rng(100 + n)
    a, b = rng.uniform(-1.5, 1.5, len(x0)), rng.uniform(1.0, 100.0, len(x0))
    lock = nelder_mead(rosen_args, x0, **options, args=(a, b))
    seq = [
        minimize(rosen_args, x, args=(a[m], b[m]), method="Nelder-Mead", options=options)
        for m, x in enumerate(x0)
    ]
    _assert_bitwise(lock, seq)
    for m, x in enumerate(x0):
        alone = nelder_mead(rosen_args, x[None], **options, args=(a[m : m + 1], b[m : m + 1]))
        assert np.array_equal(alone.x[0], lock.x[m]) and alone.fun[0] == lock.fun[m], m
        assert alone.nfev[0] == lock.nfev[m] and alone.success[0] == lock.success[m], m
    if maxfev == 50:
        assert (lock.nfev >= 50).any() and not lock.success[lock.nfev >= 50].any()
    else:
        assert lock.success.sum() > 0


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


SPREAD = 1.05 - 1.0  # the initial simplex spread from x0 = [1.0], 0.050000000000000044


@pytest.mark.parametrize(
    "fun,tolerance,nfev,success",
    [
        (lambda x: np.zeros(len(x)), {"xatol": SPREAD}, 2, True),
        (lambda x: np.zeros(len(x)), {"xatol": np.nextafter(SPREAD, 0)}, 5, True),
        (lambda x: x[:, 0], {"fatol": SPREAD}, 2, True),
        (lambda x: x[:, 0], {"fatol": np.nextafter(SPREAD, 0)}, 100, False),
    ],
)
def test_stopping_tolerances_are_inclusive(fun, tolerance, nfev, success):
    # A spread exactly at xatol or fatol stops before the first iteration;
    # one float below, the search goes on.  The other tolerance never binds.
    options = dict({"xatol": 1.0, "fatol": 1.0, "maxiter": 1000, "maxfev": 100}, **tolerance)
    lock = nelder_mead(fun, np.array([[1.0]]), **options)
    seq = minimize(lambda x: fun(x[None])[0], [1.0], method="Nelder-Mead", options=options)
    assert (lock.nfev[0], lock.success[0]) == (seq.nfev, seq.success) == (nfev, success)
    assert np.array_equal(lock.x[0], seq.x) and lock.fun[0] == seq.fun
