"""Independent numeric oracles used by the test suite.

These deliberately avoid the code paths under test: eigenvalues come from
bisection on the characteristic determinant, trace norms from a variational
projector maximization and from a matrix square root, negativities from the
sum of negative partial-transpose eigenvalues and, for TGX states, from the
paper's printed rank-2 and rank-3 formulas, the ACS rho-step's optimum from
every support in 60-digit decimal arithmetic.  The exceptions are the
rho-step's candidate list and selection rule, which mirror the kernel's
arithmetic on purpose.  The module also holds the checks and the random
X-state ensemble that only the tests use.
"""

import decimal
import itertools

import numpy as np
import scipy.linalg

from qqmems.linalg import _simplex_sample
from qqmems.xstate import XState, _x_pt_minus_eigs


def _det(H, x):
    return float(np.real(np.linalg.det(H - x * np.eye(H.shape[0]))))


def eigs_bisect_det(H, tol=1e-12):
    """Eigenvalues of a Hermitian matrix by bisection on det(H - xI).

    Assumes simple eigenvalues (true almost surely for random input): each
    root is bracketed by a sign change of the determinant on a fine grid
    within the Gershgorin bounds, then bisected to `tol`.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    radius = np.abs(H).sum(axis=1)
    lo = float(np.min(np.real(np.diag(H)) - radius)) - 1.0
    hi = float(np.max(np.real(np.diag(H)) + radius)) + 1.0
    grid = np.linspace(lo, hi, 20001)
    vals = np.array([_det(H, x) for x in grid])
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = vals[i]
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = _det(H, m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    assert len(roots) == n, f"found {len(roots)} simple roots, expected {n}"
    return np.array(sorted(roots))


def trace_norm_variational(H):
    """-tr H + 2 max_Pi tr[Pi H] over all eigen-subset projectors Pi.

    The maximum of tr[Pi H] over 0 <= Pi <= I is attained at a spectral
    projector, so scanning all 2^n eigenvector subsets recovers the trace
    norm of a Hermitian H.
    """
    H = np.asarray(H, dtype=complex)
    _, v = np.linalg.eigh(H)
    n = H.shape[0]
    best = 0.0  # the empty subset
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            cols = v[:, list(subset)]
            pi = cols @ cols.conj().T
            best = max(best, float(np.real(np.trace(pi @ H))))
    return float(-np.real(np.trace(H)) + 2.0 * best)


def trace_norm_sqrtm(H):
    """tr sqrt(H^dag H) evaluated through an explicit matrix square root."""
    H = np.asarray(H, dtype=complex)
    return float(np.real(np.trace(scipy.linalg.sqrtm(H.conj().T @ H))))


def negativity_neg_eigs(rho):
    """2 sum max(0, -lambda') over partial-transpose eigenvalues lambda'."""
    rho = np.asarray(rho, dtype=complex)
    pt = rho.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    w = np.linalg.eigvalsh(pt)
    return float(2.0 * np.sum(np.maximum(0.0, -w)))


def tgx2_formula(theta1, theta2, p1, p2):
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


def tgx3_formula(theta1, theta2, theta3, p1, p2, p3):
    """Printed negativity formula for the rank-3 TGX family (scalars or arrays).

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


def vector_subproblem_candidates(a, P):
    """The feasible KKT candidates of the ACS rho-step, one support at a time.

    For a (6,) vector a and the program max a . lam over lam >= 0,
    sum lam = 1, sum lam^2 <= P, visits the prefix supports {1..k},
    k = 1..6, of a sorted in descending order (a stable sort), each with its
    uniform point and (when P > 1/k and a is nonconstant on the support) its
    purity-active point, centred twice.  Every step mirrors the kernel's
    arithmetic, so that the tie rule can be tested on rows where rounding
    decides it: values are taken against the sorted a less its maximum, and
    value and purity are those of the clipped point.  Returns the feasible
    ones in that order as (value, purity, lam, k) tuples, lam in the caller's
    order.
    """
    a = np.asarray(a, dtype=float)
    order = np.argsort(-a, kind="stable")
    shifted = a[order] - a[order[0]]
    found = []
    for k in range(1, a.size + 1):
        a_s = shifted[:k]
        candidates = [np.full(k, 1.0 / k)]
        centered = a_s
        for _ in range(2):
            centered = centered - centered.sum() / k
        ssq = float(np.sum(centered * centered))
        if P - 1.0 / k > 0.0 and ssq > 0.0:
            scale = np.sqrt((P - 1.0 / k) / ssq)
            candidates.append(1.0 / k + scale * centered)
        for cand in candidates:
            if np.min(cand) < -1e-12 or abs(np.sum(cand) - 1.0) > 1e-9:
                continue
            cand = np.clip(cand, 0.0, None)
            pur = float(np.sum(cand * cand))
            if pur > P + 1e-12:
                continue
            lam = np.zeros(a.size)
            lam[order[:k]] = cand
            found.append((float(np.sum(a_s * cand)), pur, lam, k))
    return found


def vector_subproblem_loop(a, P):
    """The ACS rho-step's selection rule over `vector_subproblem_candidates`:
    the best value; among the candidates within 1e-15 of it, the least pure;
    among those, the first.  Returns (lam, prefix size k of the winner)."""
    found = vector_subproblem_candidates(a, P)
    best = max(val for val, _, _, _ in found)
    near = [c for c in found if c[0] >= best - 1e-15]
    least = min(pur for _, pur, _, _ in near)
    _, _, lam, k = next(c for c in near if c[1] == least)
    return lam, k


def vector_subproblem_exact(a, P):
    """The optimum of max a . lam over lam >= 0, sum lam = 1, sum lam^2 <= P,
    independent of the kernel's candidate list and arithmetic.

    Visits all 63 supports S of the (6,) vector a, each with its uniform point
    (feasible when 1/|S| <= P) and, when P > 1/|S| and a is nonconstant on S,
    its purity-active KKT point; the best one with no negative entry is the
    optimum.  Works in 60-digit decimal arithmetic from the exact values of
    the float inputs.  Returns (value, lam) as Decimals.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = [decimal.Decimal(float(x)) for x in a]
        P = decimal.Decimal(float(P))
        best = None
        for mask in range(1, 2 ** len(a)):
            idx = [i for i in range(len(a)) if mask >> i & 1]
            k = len(idx)
            mean = sum(a[i] for i in idx) / k
            centered = [a[i] - mean for i in idx]
            ssq = sum(c * c for c in centered)
            slack = P - decimal.Decimal(1) / k
            points = [[decimal.Decimal(1) / k] * k] if slack >= 0 else []
            if slack > 0 and ssq > 0:
                scale = (slack / ssq).sqrt()
                points.append([decimal.Decimal(1) / k + scale * c for c in centered])
            for point in points:
                value = sum(a[i] * x for i, x in zip(idx, point))
                if min(point) >= 0 and (best is None or value > best[0]):
                    lam = [decimal.Decimal(0)] * len(a)
                    for i, x in zip(idx, point):
                        lam[i] = x
                    best = (value, lam)
        return best


def fixed_purity_spectrum(P, rng):
    """One simplex draw from rng moved to purity P, one row at a time: the
    reference for `linalg._fixed_purity_spectra`."""
    dim = 6
    w = _simplex_sample(rng)
    pw = float(np.sum(w * w))
    if pw >= P:
        # lam(t) = u + t (w - u); purity(t) = 1/6 + t^2 (pw - 1/6)
        u = np.full(dim, 1.0 / dim)
        t = np.sqrt((P - 1.0 / dim) / (pw - 1.0 / dim))
        lam = u + t * (w - u)
    else:
        # lam(s) = (1-s) w + s e_max; purity is a strictly increasing
        # quadratic in s on [0, 1] running from pw to 1.
        e = np.zeros(dim)
        e[int(np.argmax(w))] = 1.0
        d = e - w
        a2 = float(d @ d)
        a1 = 2.0 * float(w @ d)
        s = (-a1 + np.sqrt(a1 * a1 + 4.0 * a2 * (P - pw))) / (2.0 * a2)
        lam = (1.0 - s) * w + s * e
    return lam


def sum_edges(tol):
    """(inside, past): the largest d <= tol with 1 + d a float, and the next
    such d.  Floats near 1 are eps apart, so a sum can sit exactly at 1 + tol
    only if tol is a multiple of eps."""
    eps = np.spacing(1.0)
    k = np.floor(tol / eps)
    return k * eps, (k + 1) * eps


def random_xstates(rng, count=None):
    """Random valid X state: simplex diagonal, r_k a uniform fraction of its
    positivity bound (with probability 0.1 exactly on the bound), uniform
    phases.  With `count`, a stack of `count` states: the exponentials, the
    fractions, the boundary flags and then the phases are each drawn as one
    (count, .) block.  `rng` is a seed or Generator."""
    rng = np.random.default_rng(rng)
    size = 3 if count is None else (count, 3)
    w = _simplex_sample(rng, count)
    a, b = w[..., :3], w[..., 3:]
    frac = rng.uniform(0.0, 1.0, size=size)
    frac[rng.uniform(size=size) < 0.1] = 1.0
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return XState(a=a, b=b, r=frac * np.sqrt(a * b), phi=phi)


def count_negative_pt_eigs(x):
    """Number of partial-transpose eigenvalues of an X state below -1e-12,
    or one count per state of a stack."""
    return np.sum(_x_pt_minus_eigs(x.a, x.b, x.r) < -1e-12, axis=-1)


def lemma1_check(a, b, c):
    """The three scalar inequalities behind the optimal assignment, each with
    additive slack 1e-12, for nonnegative a, b, c (arrays of one shape): a
    3-tuple of boolean arrays."""
    slack = 1e-12
    lhs1 = a + np.sqrt((a + b) ** 2 + (b + c) ** 2)
    rhs1 = np.sqrt(b**2 + (a + b + c) ** 2)
    lhs2 = np.sqrt((b + a) ** 2 + (c + a) ** 2)
    rhs2 = np.sqrt(b**2 + c**2) + a
    lhs3 = np.sqrt(b**2 + c**2) + a
    rhs3 = np.sqrt((b + a) ** 2 + c**2)
    return lhs1 >= rhs1 - slack, lhs2 >= rhs2 - slack, lhs3 >= rhs3 - slack
