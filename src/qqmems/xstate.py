"""X-form qubit-qutrit density matrices.

An X state is nonzero only on the main- and anti-diagonals.  In the m = 3a + b
basis it is parametrized by twelve reals: diagonal entries a_k (upper-left
half) and b_k (lower-right half), anti-diagonal magnitudes r_k and phases
phi_k, for k = 1, 2, 3.  Block k couples basis states (k-1) and (6-k).

Validity requires sum_k (a_k + b_k) = 1 and r_k <= sqrt(a_k b_k); the second
condition is exactly positive semidefiniteness of the 2x2 block k.  One
XState holds one state or a stack; the closed forms give one result per state.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_SLACK, TRACE_TOL, _hermitian, _numbers, _real_array

__all__ = [
    "XState",
    "XStateError",
    "from_matrix",
    "x_spectra",
    "x_negativity",
]

# Rows i_k, j_k: the (row, col) of block k's anti-diagonal entry r_k e^{-i phi_k}.
_OFFDIAG = np.array([[0, 1, 2], [5, 4, 3]])
_X_PATTERN = np.eye(6, dtype=bool) | np.eye(6, dtype=bool)[::-1]


class XStateError(ValueError):
    """Raised when the twelve X-state parameters violate a validity condition."""


@dataclass(frozen=True, eq=False)
class XState:
    """Parameters of a 2x3 X state, arrays of shape (3,), or of a stack of X
    states, arrays of one shape (..., 3); phi in radians, zeros if omitted."""

    a: np.ndarray
    b: np.ndarray
    r: np.ndarray
    phi: np.ndarray = None

    def __post_init__(self):
        shape = np.shape(self.a)
        for name in ("a", "b", "r", "phi"):
            value = getattr(self, name)
            arr = np.zeros(shape) if value is None else _real_array(value, name)
            if arr.shape != shape or shape[-1:] != (3,):
                raise XStateError(
                    f"{name} has shape {arr.shape}; a, b, r and phi need one shape (..., 3)"
                )
            if not np.all(np.isfinite(arr)):
                raise XStateError(f"{name} must be finite, got {arr}")
            object.__setattr__(self, name, arr)
        self.validate()

    def validate(self):
        """Raise XStateError naming the first offending state (NaN fails):
        signs and positivity within PSD_SLACK, the trace within TRACE_TOL."""
        a, b, r = self.a, self.b, self.r
        tol = PSD_SLACK
        if not (np.all(a >= -tol) and np.all(b >= -tol) and np.all(r >= -tol)):
            raise XStateError("a, b, r must be nonnegative")
        total = np.sum(a, axis=-1) + np.sum(b, axis=-1)
        bad = ~(np.abs(total - 1.0) <= TRACE_TOL)
        if np.any(bad):
            total = float(np.ravel(total)[np.ravel(bad)][0])
            raise XStateError(f"normalization sum(a) + sum(b) = {total}, expected 1")
        bound = np.sqrt(a * b)
        over = ~(r <= bound + tol)
        if np.any(over):
            first = np.unravel_index(np.argmax(over), over.shape)
            raise XStateError(
                f"positivity violated in block {first[-1] + 1}: "
                f"r = {r[first]} > sqrt(a*b) = {bound[first]}"
            )

    def to_matrix(self):
        """Dense (6, 6) density matrix with the X sparsity pattern, or the
        (..., 6, 6) stack of them."""
        return _pair_blocks(_OFFDIAG, self.a, self.b, self.r * np.exp(-1j * self.phi))

    def to_dict(self):
        """Flat JSON-friendly record with keys a1..a3, b1..b3, r1..r3, phi1..phi3."""
        if self.a.shape != (3,):
            raise XStateError(f"to_dict takes one state, got a stack of shape {self.a.shape}")
        out = {}
        for name, arr in (("a", self.a), ("b", self.b), ("r", self.r), ("phi", self.phi)):
            for k in range(3):
                out[f"{name}{k + 1}"] = float(arr[k])
        return out

    @classmethod
    def from_dict(cls, d):
        vals = {name: [d[f"{name}{k + 1}"] for k in range(3)] for name in ("a", "b", "r", "phi")}
        return cls(**vals)


def from_matrix(rho):
    """Recover X-state parameters from a density matrix with X sparsity.

    Raises XStateError if the matrix is not 6x6, MatrixError if it is not
    Hermitian within HERMITICITY_TOL, and XStateError listing offending entries
    if it has an entry above 1e-12 in magnitude outside the X pattern.
    """
    rho = np.asarray(_numbers(rho, "matrix"), dtype=complex)
    if rho.shape != (6, 6):
        raise XStateError(f"expected a 6x6 matrix, got shape {rho.shape}")
    rho = _hermitian(rho)
    bad = [(int(i), int(j)) for i, j in np.argwhere((np.abs(rho) > 1e-12) & ~_X_PATTERN)]
    if bad:
        raise XStateError(f"matrix is not in X form; nonzero off-pattern entries at {bad}")
    i, j = _OFFDIAG
    off = rho[i, j]
    r = np.hypot(off.real, off.imag)  # rounds as scalar abs does; array np.abs may not
    phi = np.where(r > 0, -np.angle(off), 0.0)
    return XState(a=rho[i, i].real, b=rho[j, j].real, r=r, phi=phi)


def _pair_blocks(pairs, diag_i, diag_j, off):
    """(..., 6, 6) Hermitian matrix, zero but on the 2x2 blocks of the index
    pairs (i_k, j_k), the columns of the (2, k) array pairs: diag_i[..., k]
    at (i_k, i_k), diag_j[..., k] at (j_k, j_k), off[..., k] at (i_k, j_k) and
    its conjugate at (j_k, i_k)."""
    i, j = pairs
    rho = np.zeros(np.shape(off)[:-1] + (6, 6), dtype=complex)
    rho[..., i, i] = diag_i
    rho[..., j, j] = diag_j
    rho[..., i, j] = off
    rho[..., j, i] = np.conj(off)
    return rho


def _fields(x):
    """(a, b, r) of an XState, or a TypeError naming the type of x."""
    if not isinstance(x, XState):
        raise TypeError(f"expected an XState, got {type(x).__name__}")
    return x.a, x.b, x.r


def _block_low(a, b, r):
    """Lower eigenvalue (a + b)/2 - sqrt(r^2 + ((b - a)/2)^2) of the 2x2
    Hermitian block [[a, r], [r*, b]] with |off-diagonal| r, elementwise on
    arrays or scalars of one shape."""
    d = 0.5 * (b - a)
    return 0.5 * (a + b) - np.sqrt(r * r + d * d)


def _x_pt_minus_eigs(a, b, r):
    """(..., 2) possibly-negative PT eigenvalues of X states given as (..., 3)
    arrays, the lower eigenvalues of blocks 1 and 3 (the partial transpose
    swaps r_1 and r_3); all other PT eigenvalues are nonnegative."""
    return _block_low(a[..., ::2], b[..., ::2], r[..., ::-2])


def x_spectra(x):
    """Eigenvalues of an X state (or of each state of a stack) and of its
    partial transpose, in closed form: (state_values, pt_values), each
    state's six eigenvalues in ascending order, two (6,) arrays for one
    state or two (..., 6) arrays for a stack.  Block k gives its lower
    eigenvalue and the block trace a_k + b_k minus it; in the partial
    transpose r_1 and r_3 trade blocks.  Phases drop out."""
    a, b, r = _fields(x)
    lows = (_block_low(a, b, r), _block_low(a, b, r[..., ::-1]))
    return tuple(np.sort(np.concatenate([low, a + b - low], axis=-1), axis=-1) for low in lows)


def x_negativity(x):
    """Closed-form negativity of an X state: a float, or an array with one
    value per state of a stack.

    Only the minus-branch PT eigenvalues of blocks 1 and 3 can be negative,
    and at most one of them is, so the negativity reduces to
    2 * max(0, -lam'_1-, -lam'_3-).
    """
    neg = -_x_pt_minus_eigs(*_fields(x)).min(axis=-1)
    values = 2.0 * np.where(neg > 0.0, neg, 0.0)  # max(0.0, neg), keeping +0.0
    return float(values) if values.ndim == 0 else values
