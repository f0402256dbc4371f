"""Maximal negativity of X states with a prescribed spectrum.

For a descending spectrum (lam_1, ..., lam_6), the optimal assignment of
eigenvalues to X blocks yields the closed-form ceiling

    -lam_4 - lam_6 + sqrt((lam_4 - lam_6)^2 + (lam_1 - lam_5)^2),

attained by an explicit X state.  The module also carries the brute-force
index-pair enumeration used as an independent oracle for that assignment.
"""

import itertools

import numpy as np

from .linalg import PSD_SLACK, TRACE_TOL, _real_array
from .xstate import XState, _block_low

__all__ = [
    "validate_spectrum",
    "s_value",
    "best_sequence_bruteforce",
    "n_x_lambda",
    "construct_spectrum_xmems",
]

OPTIMAL_SEQUENCE = (4, 6, 1, 5)

# All 90 quadruples (i, j, k, l), 0-based, i<j, k<l, pairs disjoint, in
# lexicographic order: the column order of _pair_table.
_PAIR_QUADRUPLES = np.array(
    [
        (i, j, k, el)
        for i, j in itertools.combinations(range(6), 2)
        for k, el in itertools.combinations([m for m in range(6) if m not in (i, j)], 2)
    ]
)


def _pair_table(lams, quads=_PAIR_QUADRUPLES):
    """-(lam_i + lam_j) + sqrt((lam_i - lam_j)^2 + (lam_k - lam_l)^2) for (n, 6)
    spectra lams and (q, 4) 0-based quadruples (i, j, k, l): an (n, q) table.

    Each entry is -2 times the lower partial-transpose eigenvalue of block 1 of
    the X state with (lam_i, lam_j) on block 1's diagonal and (lam_k, lam_l)
    mixed maximally in block 3: r_3 = (lam_k - lam_l)/2 moves to block 1.
    """
    li, lj, lk, ll = (lams[:, quads[:, c]] for c in range(4))
    return -2.0 * _block_low(li, lj, 0.5 * (lk - ll))


def validate_spectrum(lam):
    """Check a 6-vector, or each row of an (n, 6) stack, is a descending
    probability spectrum; return it.  A TypeError names lam unless it holds
    real numbers."""
    lam = _real_array(lam, "spectrum")
    if lam.ndim not in (1, 2) or lam.shape[-1] != 6:
        raise ValueError(f"spectrum must have shape (6,) or (n, 6), got {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spectrum entries must be finite")
    if np.any(lam < -PSD_SLACK):
        raise ValueError("spectrum entries must be nonnegative")
    if np.any(np.diff(lam, axis=-1) > PSD_SLACK):
        raise ValueError("spectrum must be descending")
    sums = lam.sum(axis=-1)
    bad = np.abs(sums - 1.0) > TRACE_TOL
    if np.any(bad):
        raise ValueError(f"spectrum sums to {np.ravel(sums)[np.ravel(bad)][0]}, expected 1")
    return lam


def s_value(lam, seq):
    """-(lam_i + lam_j) + sqrt((lam_i - lam_j)^2 + (lam_k - lam_l)^2).

    seq is a 1-based index quadruple (i, j, k, l) with disjoint pairs; lam is
    one spectrum or an (n, 6) stack.
    """
    lam = validate_spectrum(lam)
    seq = tuple(seq)
    if len(seq) != 4 or not all(
        isinstance(m, (int, np.integer)) and not isinstance(m, bool) and 1 <= m <= 6 for m in seq
    ):
        raise ValueError(f"sequence {seq} must be four integer indices in 1..6")
    if len(set(seq)) != 4:
        raise ValueError(f"indices must be distinct, got {seq}")
    values = _pair_table(np.atleast_2d(lam), np.array([seq]) - 1)[:, 0]
    return float(values[0]) if lam.ndim == 1 else values


def all_sequences():
    """All 90 quadruples (i, j, k, l), 1-based, i<j, k<l, pairs disjoint, in
    lexicographic order."""
    return [tuple(int(m) + 1 for m in quad) for quad in _PAIR_QUADRUPLES]


def best_sequence_bruteforce(lam):
    """Exhaustive argmax of s_value over all 90 sequences.

    Returns (sequence, value); ties resolve to the lexicographically smallest
    sequence.  For any spectrum the winning value equals s_value at (4,6,1,5).
    For an (n, 6) stack the sequences come back as an (n, 4) array and the
    values as an (n,) array.
    """
    lam = validate_spectrum(lam)
    table = _pair_table(np.atleast_2d(lam))
    cols = np.argmax(table, axis=1)  # first maximum: the lexicographic tie rule
    best = table[np.arange(len(cols)), cols]
    if lam.ndim == 1:
        return all_sequences()[cols[0]], float(best[0])
    return _PAIR_QUADRUPLES[cols] + 1, best


def n_x_lambda(lam):
    """Maximal negativity over X states of spectrum lam (may be negative): the
    pair formula at the optimal assignment (4, 6, 1, 5).  A float for one
    spectrum, an (n,) array for an (n, 6) stack.

    A negative value means no X state with this spectrum is entangled.
    """
    return s_value(lam, OPTIMAL_SEQUENCE)


def construct_spectrum_xmems(lam):
    """Explicit X state of spectrum lam attaining max(0, n_x_lambda(lam)).

    With (i, j, k, l) = OPTIMAL_SEQUENCE = (4, 6, 1, 5), block 1 carries
    (lam_i, lam_j) diagonally, block 2 the other two, (lam_2, lam_3), and block
    3 mixes (lam_k, lam_l) maximally on the anti-diagonal.  For an
    (n, 6) stack of spectra the XState holds the n states.
    """
    lam = validate_spectrum(lam)
    li, lj, lk, ll = (lam[..., m - 1] for m in OPTIMAL_SEQUENCE)
    lm, ln = (lam[..., m - 1] for m in range(1, 7) if m not in OPTIMAL_SEQUENCE)
    mid = 0.5 * (lk + ll)
    zero = np.zeros_like(mid)
    a = np.stack([li, lm, mid], axis=-1)
    b = np.stack([lj, ln, mid], axis=-1)
    r = np.stack([zero, zero, 0.5 * (lk - ll)], axis=-1)
    return XState(a=a, b=b, r=r)
