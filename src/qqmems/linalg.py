"""Dense Hermitian linear algebra for 2x3 (qubit-qutrit) density matrices.

Basis convention, fixed globally: the product basis |ab> with a in {0, 1}
(qubit) and b in {0, 1, 2} (qutrit) is flattened as m = 3*a + b, i.e. the
ordered basis is {|00>, |01>, |02>, |10>, |11>, |12>}.  The partial transpose
below is taken over the qubit and depends on this convention.
"""

from collections.abc import Sequence

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "PSD_SLACK",
    "TRACE_TOL",
    "MatrixError",
    "eig_hermitian",
    "partial_transpose_qubit",
    "trace_norm",
    "negativity",
    "purity",
    "check_density_matrix",
    "random_spectrum",
    "random_density",
    "random_density_fixed_purity",
]


# Numeric tolerances of the package's checks.
HERMITICITY_TOL = 1e-12  # max |H - H^dag| of a Hermitian matrix
PSD_SLACK = 1e-12  # how far below 0 an eigenvalue or weight may round
TRACE_TOL = 1e-12  # max |trace - 1| of a state


class MatrixError(ValueError):
    """A failed check; `index` locates the first failing matrix in its stack."""

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


def _require(ok, message, values):
    """Raise MatrixError(message.format(values[i])) at the first False i of ok."""
    if not np.all(ok):
        index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), np.shape(ok)))
        raise MatrixError(message.format(values[index]), index)


def _numbers(x, name):
    """x as an array; a TypeError naming x unless it holds integers, floats or
    complex numbers, before a complex conversion could parse strings; a
    MatrixError at the first matrix with a NaN or infinite entry."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iufc":
        raise TypeError(f"{name} has dtype {arr.dtype}, not real or complex numbers")
    if not np.isfinite(arr).all():
        worst = np.abs(arr).max(axis=(-2, -1) if arr.ndim >= 2 else None)  # NaN if any is NaN
        _require(np.isfinite(worst), f"{name} has a non-finite entry: max |entry| = {{}}", worst)
    return arr


def _square(M):
    """M, if it is a square matrix or a (..., n, n) stack of them."""
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def _hermitian(H, name="matrix"):
    """H as a complex array, if it is a Hermitian matrix or a (..., n, n)
    stack of them within HERMITICITY_TOL; else a MatrixError naming the first
    non-finite or non-Hermitian matrix (NaN fails)."""
    H = _square(np.asarray(_numbers(H, name), dtype=complex))
    dev = np.abs(H - H.conj().swapaxes(-1, -2))
    if dev.size and not dev.max() <= HERMITICITY_TOL:  # the worst entry; NaN fails too
        dev = dev.max(axis=(-2, -1))
        _require(dev <= HERMITICITY_TOL, "matrix is not Hermitian: max |H - H^dag| = {:.3e}", dev)
    return H


def eig_hermitian(H):
    """Eigendecomposition of a Hermitian matrix, or of a (..., n, n) stack.

    Returns (eigenvalues ascending, eigenvector columns).  Raises MatrixError
    if any matrix is not Hermitian within HERMITICITY_TOL (NaN fails), naming
    the first such matrix's deviation.
    """
    w, v = np.linalg.eigh(_hermitian(H))
    return w, v


def partial_transpose_qubit(rho):
    """Partial transpose over the qubit subsystem of a 6x6 matrix or a
    (..., 6, 6) stack.

    out[(a,b),(a',b')] = in[(a',b),(a,b')].  An involution; preserves trace
    and Hermiticity.
    """
    rho = _numbers(rho, "matrix")
    if rho.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {rho.shape}")
    return rho.reshape(-1, 2, 3, 2, 3).swapaxes(1, 3).reshape(rho.shape)


def trace_norm(H):
    """Trace norm tr sqrt(H^dag H) of a Hermitian matrix (or of each matrix
    of a stack): sum |eigenvalues|."""
    w = np.linalg.eigvalsh(_hermitian(H))
    norms = np.sum(np.abs(w), axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def negativity(rho):
    """Negativity of a 2x3 state (or of a (..., 6, 6) stack of states): trace
    norm of the partial transpose, minus 1.

    Normalized so the value spans [0, 1]; zero exactly when the partial
    transpose is positive semidefinite (the PPT criterion, which is decisive
    in 2x3).
    """
    return trace_norm(partial_transpose_qubit(rho)) - 1.0


def purity(rho):
    """tr rho^2 (one per matrix of a stack), in [1/6, 1] for 6-dimensional states."""
    rho = _square(_numbers(rho, "density matrix"))
    values = np.real(np.trace(rho @ rho, axis1=-2, axis2=-1))
    return float(values) if values.ndim == 0 else values


def check_density_matrix(rho):
    """Validate Hermiticity, then trace 1, then positive semidefiniteness,
    within TRACE_TOL and PSD_SLACK, each over the whole stack (one eigvalsh)."""
    rho = _hermitian(rho, "density matrix")
    w0 = np.linalg.eigvalsh(rho)[..., 0]  # the smallest eigenvalues
    tr = np.trace(rho, axis1=-2, axis2=-1).real  # _hermitian bounded the imaginary parts
    _require(np.abs(tr - 1.0) <= TRACE_TOL, f"trace is {{}}, expected 1 within {TRACE_TOL}", tr)
    _require(w0 >= -PSD_SLACK, f"smallest eigenvalue {{:.3e}} below -{PSD_SLACK}", w0)
    return rho


def _real_array(x, name):
    """x as a float array; a TypeError naming x unless it holds integers or
    floats, before any arithmetic."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} {x!r} is not a real number or an array of real numbers")
    return np.asarray(arr, dtype=float)


def _haar(g):
    """Haar unitaries from (..., 2, dim, dim) standard normals: the QR of each
    complex Ginibre matrix (g[..., 0, :, :] + i g[..., 1, :, :]) / sqrt 2, with
    the R diagonal phases folded back into Q."""
    q, r = np.linalg.qr((g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _simplex_sample(rng, count=None):
    """Uniform point on the 6-outcome probability simplex via exponential
    spacings; with `count`, a (count, 6) stack drawn from the same stream, row
    by row."""
    e = rng.exponential(size=6 if count is None else (count, 6))
    return e / e.sum(axis=-1, keepdims=True)


def random_spectrum(rng, count=None):
    """Random descending 6-spectrum (uniform on the simplex, then sorted);
    with `count`, a (count, 6) stack equal to `count` successive single
    draws.  `rng` is a seed or Generator."""
    if count is not None and (
        isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0
    ):
        raise ValueError(f"count must be None or an integer >= 0, got {count!r}")
    w = _simplex_sample(np.random.default_rng(rng), count)
    return np.sort(w, axis=-1)[..., ::-1].copy()


def _per_row(rng, n, row, rows):
    """`rng` as a list of n seeds or Generators, one per row of a stack; a
    ValueError naming the row kind unless it is a sequence of that length."""
    if not isinstance(rng, (Sequence, np.ndarray)):
        raise ValueError(f"rng must be a sequence of one seed or Generator per {row}, got {rng!r}")
    if len(rng) != n:
        raise ValueError(f"{len(rng)} rngs for {n} {rows}; need one per {row}")
    return list(rng)


def _per_purity(P, rng):
    """(scalar, purities, rngs) for the float-or-array purity argument of a
    seeded routine: P as a 1-D float array and one rng per purity.  A float P
    takes `rng` itself; a 1-D array takes a sequence of one seed or Generator
    per purity."""
    grid = _real_array(P, "purity")
    if grid.ndim == 0:
        return True, grid[None], [rng]
    if grid.ndim != 1:
        raise ValueError(f"purities must be a float or a 1-D array, got shape {grid.shape}")
    return False, grid, _per_row(rng, len(grid), "purity", "purities")


def random_density(spectra, rng):
    """Random 6x6 density matrix U diag(spectra) U^dag with U Haar-distributed.

    `spectra` is a (6,) probability vector, in any order, with `rng` a seed or
    Generator; or an (n, 6) stack of them with `rng` a sequence of one seed or
    Generator per row, and the result is the (n, 6, 6) stack whose row i is the
    matrix the single call with spectra[i] and rng i would give.  Each row
    draws one Ginibre matrix from its own rng; the stack takes one QR and one
    conjugation.  Entries must be finite and at least -PSD_SLACK, and each row
    must sum to 1 within TRACE_TOL; a MatrixError names the first that is not.
    """
    lam = _real_array(spectra, "spectra")
    if lam.ndim not in (1, 2) or lam.shape[-1] != 6:
        raise ValueError(f"spectra must have shape (6,) or (n, 6), got {lam.shape}")
    _require(np.isfinite(lam), "spectra entry {} is not finite", lam)
    _require(lam >= -PSD_SLACK, f"spectra entry {{:.3e}} below -{PSD_SLACK}", lam)
    sums = lam.sum(axis=-1)
    message = f"spectra row sums to {{}}, not 1 within {TRACE_TOL}"
    _require(np.abs(sums - 1.0) <= TRACE_TOL, message, sums)
    rngs = [rng] if lam.ndim == 1 else _per_row(rng, len(lam), "row", "rows of spectra")
    g = np.empty((len(rngs), 2, 6, 6))
    for gi, r in zip(g, rngs):
        np.random.default_rng(r).standard_normal(out=gi)
    U = _haar(g)
    rho = (U * lam.reshape(-1, 1, 6)) @ U.conj().swapaxes(-1, -2)
    return rho[0] if lam.ndim == 1 else rho


def random_density_fixed_purity(P, rng):
    """Random full-rank 6x6 density matrix with tr rho^2 = P exactly.

    Draws a simplex spectrum and interpolates it along a purity-monotone path
    to hit tr rho^2 = P exactly: toward the uniform vector when the draw is
    purer than P, toward the draw's dominant vertex when it is more mixed
    (rejection of too-mixed draws would almost never terminate for P near 1).
    The spectrum is then conjugated by a Haar unitary (`random_density`, from
    the same rng), so the distribution is unitarily invariant given the
    spectrum draw.

    P is a float with `rng` a seed or Generator; or P is a 1-D array of
    purities with `rng` a sequence of one seed or Generator per purity, and
    the result is the (n, 6, 6) stack whose row i is the matrix the scalar
    call with P[i] and rng i would give.  Per row only the draws are made;
    the interpolation, QR and conjugation are stacked.
    """
    scalar, grid, rngs = _per_purity(P, rng)
    inside = (1.0 / 6.0 < grid) & (grid < 1.0)
    if not inside.all():
        raise ValueError(f"purity {grid[np.argmin(inside)]} outside (1/6, 1)")
    rngs = [np.random.default_rng(r) for r in rngs]
    e = np.reshape([r.exponential(size=6) for r in rngs], (-1, 6))
    rho = random_density(_fixed_purity_spectra(e / e.sum(axis=-1, keepdims=True), grid), rngs)
    return rho[0] if scalar else rho


def _fixed_purity_spectra(w, P):
    """Each simplex point w[i] of an (n, 6) stack moved along its purity-
    monotone path to purity P[i].  Each branch works on its own rows only, and
    both dot products go through `matmul` on (n, 1, 6) @ (n, 6, 1) stacks,
    which rounds as the 1-D `@` of a single row does."""
    pw = np.sum(w * w, axis=-1)
    lam = np.empty_like(w)
    # lam(t) = u + t (w - u); purity(t) = 1/6 + t^2 (pw - 1/6)
    purer = pw >= P
    t = np.sqrt((P[purer] - 1.0 / 6) / (pw[purer] - 1.0 / 6))
    lam[purer] = 1.0 / 6 + t[:, None] * (w[purer] - 1.0 / 6)
    # lam(s) = (1-s) w + s e_max; purity is a strictly increasing quadratic
    # in s on [0, 1] running from pw to 1.
    mixed = ~purer
    wm = w[mixed]
    e = np.zeros_like(wm)
    e[np.arange(len(wm)), np.argmax(wm, axis=-1)] = 1.0
    d = e - wm
    a2 = (d[:, None, :] @ d[:, :, None])[:, 0, 0]
    a1 = 2.0 * (wm[:, None, :] @ d[:, :, None])[:, 0, 0]
    s = ((-a1 + np.sqrt(a1 * a1 + 4.0 * a2 * (P[mixed] - pw[mixed]))) / (2.0 * a2))[:, None]
    lam[mixed] = (1.0 - s) * wm + s * e
    return lam
