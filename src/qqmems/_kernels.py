"""Hot numeric kernels.

The X-state and assignment-scan kernels are numba-compiled unless
QQMEMS_NO_NUMBA is set; each such ``foo`` also exists as ``foo_py`` (the
un-jitted twin) so the two paths can be benchmarked against each other.  The
TGX formulas are plain numpy and take scalars or equal-shape arrays alike.
All kernels work on raw floats; validation lives in the caller modules.

X-state parameter layout used throughout: a flat vector
``(a1, a2, a3, b1, b2, b3, r1, r2, r3)``; phases are omitted because neither
the spectrum nor the negativity depends on them.
"""

import numpy as np

from ._backend import NUMBA_ENABLED, maybe_njit


def x_pt_minus_eigs_py(params):
    """Possibly-negative partial-transpose eigenvalues of a batch of X states.

    params : (n, 9) float array.  Returns (n, 2) array with the two candidate
    negative eigenvalues (blocks k=1 and k=3); all other PT eigenvalues are
    provably nonnegative.
    """
    n = params.shape[0]
    out = np.empty((n, 2))
    for m in range(n):
        a1, a2, a3 = params[m, 0], params[m, 1], params[m, 2]
        b1, b2, b3 = params[m, 3], params[m, 4], params[m, 5]
        r1, r3 = params[m, 6], params[m, 8]
        d1 = 0.5 * (b1 - a1)
        d3 = 0.5 * (b3 - a3)
        out[m, 0] = 0.5 * (a1 + b1) - np.sqrt(r3 * r3 + d1 * d1)
        out[m, 1] = 0.5 * (a3 + b3) - np.sqrt(r1 * r1 + d3 * d3)
    return out


def x_negativity_batch_py(params):
    """Closed-form negativity of a batch of X states, (n, 9) -> (n,)."""
    n = params.shape[0]
    out = np.empty(n)
    for m in range(n):
        a1, a3 = params[m, 0], params[m, 2]
        b1, b3 = params[m, 3], params[m, 5]
        r1, r3 = params[m, 6], params[m, 8]
        d1 = 0.5 * (b1 - a1)
        d3 = 0.5 * (b3 - a3)
        lam1m = 0.5 * (a1 + b1) - np.sqrt(r3 * r3 + d1 * d1)
        lam3m = 0.5 * (a3 + b3) - np.sqrt(r1 * r1 + d3 * d3)
        out[m] = 2.0 * max(0.0, max(-lam1m, -lam3m))
    return out


def spectrum_pair_value_py(lam, i, j, k, el):
    """-(lam_i + lam_j) + sqrt((lam_i - lam_j)^2 + (lam_k - lam_el)^2)."""
    return -(lam[i] + lam[j]) + np.sqrt((lam[i] - lam[j]) ** 2 + (lam[k] - lam[el]) ** 2)


def best_pair_scan_py(lams):
    """Exhaustive scan over all 90 disjoint index-pair choices, batched.

    lams : (n, 6) spectra.  Returns (n,) best values; used as the brute-force
    oracle for the closed-form assignment (4, 6, 1, 5).
    """
    n = lams.shape[0]
    out = np.empty(n)
    for m in range(n):
        lam = lams[m]
        best = -np.inf
        for i in range(6):
            for j in range(i + 1, 6):
                for k in range(6):
                    if k == i or k == j:
                        continue
                    for el in range(k + 1, 6):
                        if el == i or el == j:
                            continue
                        v = -(lam[i] + lam[j]) + np.sqrt(
                            (lam[i] - lam[j]) ** 2 + (lam[k] - lam[el]) ** 2
                        )
                        if v > best:
                            best = v
        out[m] = best
    return out


def tgx2_negativity_kernel(theta1, theta2, p1, p2):
    """Printed negativity formula for the rank-2 TGX family.

    Powers go through ``np.float_power`` (libm ``pow`` for scalars and
    arrays alike) rather than ``**``, which on float64 arrays takes numpy's
    SIMD power loop or an ``x * x`` fast path, both of which round
    differently from the libm ``pow`` it uses on scalars; array and scalar
    evaluations would then differ in the last bit.
    """
    c1 = np.cos(theta1)
    s1 = np.sin(theta1)
    c2 = np.cos(theta2)
    s2 = np.sin(theta2)
    s2t1 = 2.0 * s1 * c1
    s2t2 = 2.0 * s2 * c2
    return (
        -p1 * c1 * c1
        - p2 * s2 * s2
        + np.sqrt(p1 * p1 * np.float_power(c1, 4) + p2 * p2 * s2t2 * s2t2)
        + np.sqrt(p2 * p2 * np.float_power(s2, 4) + p1 * p1 * s2t1 * s2t1)
    )


def tgx3_negativity_kernel(theta1, theta2, theta3, p1, p2, p3):
    """Printed negativity formula for the rank-3 TGX family.

    Sums |sigma| - sigma over the three candidate-negative PT eigenvalues,
    with (i, j, k) running over cyclic permutations of (1, 2, 3).  Squares
    use ``np.float_power`` for the reason given in tgx2_negativity_kernel.
    """
    th = (theta1, theta2, theta3)
    p = (p1, p2, p3)
    total = 0.0
    for k in range(3):
        i = (k + 1) % 3
        j = (k + 2) % 3
        si = np.sin(th[i])
        cj = np.cos(th[j])
        u = p[i] * si * si
        v = p[j] * cj * cj
        s2k = np.sin(2.0 * th[k])
        sigma = 0.5 * (u + v) - 0.5 * np.sqrt(p[k] * p[k] * s2k * s2k + np.float_power(u - v, 2))
        total += abs(sigma) - sigma
    return total


x_pt_minus_eigs = maybe_njit(x_pt_minus_eigs_py)
x_negativity_batch = maybe_njit(x_negativity_batch_py)
spectrum_pair_value = maybe_njit(spectrum_pair_value_py)
best_pair_scan = maybe_njit(best_pair_scan_py)
