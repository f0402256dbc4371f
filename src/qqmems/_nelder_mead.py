"""Lockstep multistart Nelder-Mead in numpy.

Each start follows exactly the iteration of
``scipy.optimize.minimize(method="Nelder-Mead")`` with its default
(non-adaptive) coefficients: the same initial simplex, the same vertex
arithmetic in the same floating-point order, the same sorts, the same
``xatol``/``fatol``/``maxiter``/``maxfev`` tests and the same evaluation count,
so a start ends where scipy would have left it, bit for bit.  What changes is
the dispatch: every iteration stacks the reflection, expansion and both
contraction points of all active starts into one objective call, and the
shrink step into a second.  Points the sequential algorithm would not have
evaluated are computed and discarded; they are not counted in ``nfev``.
Starts that converge or exhaust their budget freeze while the others go on.
Per-start constants ride along with the points, so starts of different
problems (one purity each, say) share a batch.
"""

from dataclasses import dataclass

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025
_TRIAL_A = np.array([1 + RHO, 1 + RHO * CHI, 1 + PSI * RHO, 1 - PSI])[:, None, None]
_TRIAL_B = np.array([RHO, RHO * CHI, PSI * RHO, -PSI])[:, None, None]


@dataclass
class NelderMeadResult:
    """Per-start outcome; row m of each array belongs to start m."""

    x: np.ndarray  # (M, N) best vertex
    fun: np.ndarray  # (M,) best value
    nfev: np.ndarray  # (M,) objective evaluations, as scipy counts them
    success: np.ndarray  # (M,) met xatol and fatol within maxiter/maxfev


def _sort(sim, fsim):
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev, args=()):
    """Minimize ``fun`` from every row of ``x0`` (shape (M, N)).

    ``fun(points, *consts)`` receives a (K, N) array of points and returns
    their (K,) objective values.  ``args`` holds per-start constants, each of
    shape (M,); ``fun`` gets them as ``consts``, (K,) arrays whose row k
    belongs to the start of point k.  ``fun`` must be elementwise: a point's
    value may not depend on the other points in the call.
    """
    x0 = np.asarray(x0, dtype=float)
    M, N = x0.shape
    args = tuple(np.asarray(c) for c in args)

    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    sim[:, k + 1, k] = np.where(x0 != 0, (1 + NONZDELT) * x0, ZDELT)
    fsim = np.full((M, N + 1), np.inf)
    n0 = min(N + 1, maxfev)
    fsim[:, :n0] = fun(sim[:, :n0].reshape(-1, N), *(np.repeat(c, n0) for c in args)).reshape(M, n0)
    nfev = np.full(M, n0)
    # scipy sorts the initial simplex twice; with tied values an unstable
    # argsort may reorder the ties on the second pass, so do the same.
    sim, fsim = _sort(*_sort(sim, fsim))

    success = np.zeros(M, dtype=bool)
    # Working set: the live starts a, with their simplices, values, counts.
    a, S, F, nf, it = np.arange(M), sim, fsim, nfev, np.ones(M, dtype=int)
    while a.size:
        live = (nf < maxfev) & (it < maxiter)
        done = live & (np.abs(S[:, 1:] - S[:, :1]).max(axis=(1, 2)) <= xatol)
        done &= np.abs(F[:, :1] - F[:, 1:]).max(axis=1) <= fatol
        success[a[done]] = True
        stop = done | ~live
        if stop.any():
            sim[a[stop]], fsim[a[stop]], nfev[a[stop]] = S[stop], F[stop], nf[stop]
            a, S, F, nf, it = a[~stop], S[~stop], F[~stop], nf[~stop], it[~stop]
            if not a.size:
                break

        # np.add.reduce(sim[:-1], 0) in scipy adds the vertices in order.
        xbar = S[:, 0].copy()
        for j in range(1, N):
            xbar += S[:, j]
        xbar = xbar / N
        # Reflection, expansion, outside and inside contraction, each as
        # A * xbar - B * worst with scipy's rounding (e.g. 0.5 * xbar + 0.5 * worst).
        pts = _TRIAL_A * xbar - _TRIAL_B * S[:, -1]
        vals = fun(pts.reshape(-1, N), *(np.tile(c[a], 4) for c in args)).reshape(4, -1)
        fxr, fxe, fxc, fxcc = vals

        expand = fxr < F[:, 0]
        accept_r = ~expand & (fxr < F[:, -2])
        outside = ~expand & ~accept_r & (fxr < F[:, -1])
        inside = ~expand & ~accept_r & ~outside
        # A second evaluation past maxfev abandons the iteration, as scipy's
        # _MaxFuncCallError does: no vertex changes and it is not counted.
        avail = maxfev - nf
        cut = ~accept_r & (avail < 2)
        use_e = expand & (fxe < fxr)
        use_c = outside & (fxc <= fxr)
        use_cc = inside & (fxcc < F[:, -1])
        shrink = ~cut & ((outside & ~use_c) | (inside & ~use_cc))
        r = np.flatnonzero(~cut & ~shrink)
        pick = (use_e + 2 * use_c + 3 * use_cc)[r]  # row of pts
        S[r, -1] = pts[pick, r]
        F[r, -1] = vals[pick, r]
        nf += np.where(accept_r | cut, 1, 2)

        completed = ~cut
        if shrink.any():
            s = np.flatnonzero(shrink)
            moved = S[s, :1] + SIGMA * (S[s, 1:] - S[s, :1])
            fmoved = fun(moved.reshape(-1, N), *(np.repeat(c[a[s]], N) for c in args)).reshape(-1, N)
            # With the budget running out mid-shrink, scipy has moved vertex
            # n_eval + 1 but not evaluated it, and left the rest untouched.
            n_eval = np.minimum(N, avail[s] - 2)
            jj = np.arange(N)
            S[s, 1:] = np.where((jj <= n_eval[:, None])[:, :, None], moved, S[s, 1:])
            F[s, 1:] = np.where(jj < n_eval[:, None], fmoved, F[s, 1:])
            nf[s] += n_eval
            completed[s] = n_eval == N
        it += completed
        S, F = _sort(S, F)

    return NelderMeadResult(x=sim[:, 0].copy(), fun=fsim.min(axis=1), nfev=nfev, success=success)
