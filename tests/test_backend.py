import os
import subprocess
import sys

import numpy as np

from qqmems import _kernels
from qqmems._backend import NUMBA_ENABLED

KERNELS = [
    "x_pt_minus_eigs",
    "x_negativity_batch",
    "best_pair_scan",
]


def _random_params(rng, n):
    w = rng.exponential(size=(n, 6))
    w /= w.sum(axis=1, keepdims=True)
    params = np.empty((n, 9))
    params[:, :3] = w[:, :3]
    params[:, 3:6] = w[:, 3:]
    params[:, 6:] = rng.uniform(0, 1, (n, 3)) * np.sqrt(w[:, :3] * w[:, 3:])
    return params


def test_jitted_and_python_twins_agree(rng):
    params = _random_params(rng, 500)
    spectra = np.sort(params[:, :6] / params[:, :6].sum(axis=1, keepdims=True), axis=1)[:, ::-1].copy()
    args = {
        "x_pt_minus_eigs": (params,),
        "x_negativity_batch": (params,),
        "best_pair_scan": (spectra,),
    }
    for name in KERNELS:
        out_jit = getattr(_kernels, name)(*args[name])
        out_py = getattr(_kernels, name + "_py")(*args[name])
        np.testing.assert_allclose(out_jit, out_py, rtol=0, atol=1e-15)


def test_scalar_kernels_agree(rng):
    # The TGX formulas evaluated on arrays equal their scalar calls elementwise.
    th = rng.uniform(0, np.pi, (200, 3))
    p = rng.dirichlet(np.ones(3), 200)
    out3 = _kernels.tgx3_negativity_kernel(*th.T, *p.T)
    out2 = _kernels.tgx2_negativity_kernel(th[:, 0], th[:, 1], p[:, 0], 1 - p[:, 0])
    for m in range(200):
        assert abs(out3[m] - _kernels.tgx3_negativity_kernel(*th[m], *p[m])) <= 1e-15
        assert abs(
            out2[m] - _kernels.tgx2_negativity_kernel(th[m, 0], th[m, 1], p[m, 0], 1 - p[m, 0])
        ) <= 1e-15


def test_no_numba_env_flag_selects_python_path():
    code = (
        "from qqmems._backend import NUMBA_ENABLED\n"
        "from qqmems import _kernels\n"
        "import numpy as np\n"
        "assert not NUMBA_ENABLED\n"
        "assert _kernels.x_negativity_batch is _kernels.x_negativity_batch_py\n"
        "out = _kernels.x_negativity_batch(np.array([[0.5, 0, 0, 0.5, 0, 0, 0.5, 0, 0]]))\n"
        "assert abs(out[0] - 1.0) < 1e-12\n"
        "print('ok')\n"
    )
    env = dict(os.environ, QQMEMS_NO_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_default_backend_is_jitted_here():
    # The test environment runs with numba available and the flag unset.
    if os.environ.get("QQMEMS_NO_NUMBA"):
        assert not NUMBA_ENABLED
    else:
        assert NUMBA_ENABLED
        assert _kernels.x_negativity_batch is not _kernels.x_negativity_batch_py
