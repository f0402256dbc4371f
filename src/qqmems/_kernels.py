"""Hot numeric kernels, plain numpy over arrays.

Every kernel takes whole arrays (a batch of X states, a stack of spectra, a
population of TGX angles) and evaluates one formula elementwise; the scalar
entry points in the caller modules are the one-row case of the same code.
All kernels work on raw floats; validation lives in the caller modules.

Powers go through ``np.float_power`` (libm ``pow`` for scalars and arrays
alike), not ``**``: on float64 arrays that takes a SIMD loop or an ``x * x``
fast path, which round differently from the libm ``pow`` numpy uses on
float64 scalars, so array and scalar results would differ in the last bit.

X-state parameter layout used throughout: a flat vector
``(a1, a2, a3, b1, b2, b3, r1, r2, r3)``; phases are omitted because neither
the spectrum nor the negativity depends on them.
"""

import itertools

import numpy as np


def x_block_eigs(params, transpose=False):
    """(n, 3, 2) eigenvalues (minus, plus) of the 2x2 blocks of (n, 9) X states,
    or of their partial transposes: (a_k + b_k)/2 -+ sqrt(r^2 + d_k^2) with
    d_k = (b_k - a_k)/2 and r = r_k, or r = r_{4-k} with transpose=True (the
    partial transpose swaps r_1 and r_3).  Phases drop out."""
    a, b, r = params[:, 0:3], params[:, 3:6], params[:, 6:9]
    if transpose:
        r = r[:, ::-1]
    d = 0.5 * (b - a)
    mean = 0.5 * (a + b)
    half = np.sqrt(r * r + d * d)
    return np.stack([mean - half, mean + half], axis=-1)


def x_pt_minus_eigs(params):
    """(n, 2) possibly-negative PT eigenvalues of (n, 9) X states, the minus
    branches of blocks 1 and 3; all other PT eigenvalues are nonnegative."""
    return x_block_eigs(params, transpose=True)[:, ::2, 0]


# All 90 quadruples (i, j, k, l), 0-based, i<j, k<l, pairs disjoint, in
# lexicographic order: the column order of pair_table.
PAIR_QUADRUPLES = np.array(
    [
        (i, j, k, el)
        for i, j in itertools.combinations(range(6), 2)
        for k, el in itertools.combinations([m for m in range(6) if m not in (i, j)], 2)
    ]
)


def pair_table(lams, quads=PAIR_QUADRUPLES):
    """-(lam_i + lam_j) + sqrt((lam_i - lam_j)^2 + (lam_k - lam_l)^2) for (n, 6)
    spectra lams and (q, 4) 0-based quadruples (i, j, k, l): an (n, q) table."""
    li, lj, lk, ll = (lams[:, quads[:, c]] for c in range(4))
    return -(li + lj) + np.sqrt(np.float_power(li - lj, 2) + np.float_power(lk - ll, 2))


def best_pair_scan(lams):
    """Best of all 90 disjoint index-pair choices for each of (n, 6) spectra:
    the brute-force oracle for the closed-form assignment (4, 6, 1, 5)."""
    return pair_table(lams).max(axis=1)


def tgx2_negativity_kernel(theta1, theta2, p1, p2):
    """Printed negativity formula for the rank-2 TGX family (scalars or arrays)."""
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
    with (i, j, k) running over cyclic permutations of (1, 2, 3).
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
