"""Dense Hermitian linear algebra for 2x3 (qubit-qutrit) density matrices.

Basis convention, fixed globally: the product basis |ab> with a in {0, 1}
(qubit) and b in {0, 1, 2} (qutrit) is flattened as m = 3*a + b, i.e. the
ordered basis is {|00>, |01>, |02>, |10>, |11>, |12>}.  The partial transpose
below is taken over the qubit and depends on this convention.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "TOL",
    "eig_hermitian",
    "partial_transpose_qubit",
    "trace_norm",
    "negativity",
    "purity",
    "check_density_matrix",
    "haar_unitary",
    "random_density_fixed_purity",
]


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances used across the package."""

    hermiticity: float = 1e-12
    psd_slack: float = 1e-12
    trace: float = 1e-12
    reconstruction: float = 1e-11


TOL = Tolerances()


def eig_hermitian(H, tol=TOL.hermiticity):
    """Eigendecomposition of a Hermitian matrix, or of a (..., n, n) stack.

    Returns (eigenvalues ascending, eigenvector columns).  Raises ValueError
    if any matrix is not Hermitian within `tol`, with the first such matrix's
    deviation.
    """
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    dev = np.abs(H - H.conj().swapaxes(-1, -2))
    if dev.size and not dev.max() <= tol:  # the worst entry of the stack; NaN fails too
        per_matrix = np.ravel(dev.max(axis=(-2, -1)))
        first = per_matrix[np.argmin(per_matrix <= tol)]
        raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {first:.3e}")
    w, v = np.linalg.eigh(H)
    return w, v


def partial_transpose_qubit(rho):
    """Partial transpose over the qubit subsystem of a 6x6 matrix or a
    (..., 6, 6) stack.

    out[(a,b),(a',b')] = in[(a',b),(a,b')].  An involution; preserves trace
    and Hermiticity.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got shape {rho.shape}")
    return rho.reshape(-1, 2, 3, 2, 3).swapaxes(1, 3).reshape(rho.shape)


def trace_norm(H, tol=TOL.hermiticity):
    """Trace norm tr sqrt(H^dag H) of a Hermitian matrix (or of each matrix
    of a stack): sum |eigenvalues|."""
    w, _ = eig_hermitian(H, tol)
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
    """tr rho^2, in [1/6, 1] for 6-dimensional states."""
    rho = np.asarray(rho)
    return float(np.real(np.trace(rho @ rho)))


def check_density_matrix(rho, tol=TOL):
    """Validate trace 1, Hermiticity, and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol.trace:
        raise ValueError(f"trace is {tr}, expected 1 within {tol.trace}")
    w, _ = eig_hermitian(rho, tol.hermiticity)
    if w[0] < -tol.psd_slack:
        raise ValueError(f"smallest eigenvalue {w[0]:.3e} below -{tol.psd_slack}")
    return rho


def haar_unitary(dim, rng):
    """Haar-distributed random unitary: QR of a complex Ginibre matrix with
    the R diagonal phases folded back into Q."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _simplex_sample(dim, rng, count=None):
    """Uniform point on the probability simplex via exponential spacings; with
    `count`, a (count, dim) stack drawn from the same stream, row by row."""
    e = rng.exponential(size=dim if count is None else (count, dim))
    return e / e.sum(axis=-1, keepdims=True)


def random_spectrum(rng, dim=6, count=None):
    """Random descending spectrum (uniform on the simplex, then sorted); with
    `count`, a (count, dim) stack equal to `count` successive single draws."""
    w = _simplex_sample(dim, rng, count)
    return np.sort(w, axis=-1)[..., ::-1].copy()


def random_density_fixed_purity(P, rng):
    """Random full-rank 6x6 density matrix with tr rho^2 = P exactly.

    Draws a simplex spectrum and interpolates it along a purity-monotone path
    to hit tr rho^2 = P exactly: toward the uniform vector when the draw is
    purer than P, toward the draw's dominant vertex when it is more mixed
    (rejection of too-mixed draws would almost never terminate for P near 1).
    The spectrum is then conjugated by a Haar unitary, so the distribution is
    unitarily invariant given the spectrum draw.
    """
    if not (1.0 / 6.0 < P < 1.0):
        raise ValueError(f"purity {P} outside (1/6, 1)")
    dim = 6
    w = _simplex_sample(dim, rng)
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
    U = haar_unitary(dim, rng)
    return (U * lam) @ U.conj().T
