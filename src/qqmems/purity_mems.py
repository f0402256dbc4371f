"""Maximal X-state negativity at fixed purity, under spectral side constraints.

Three closed-form curves and matching state constructions:

* rank 2, P in [1/2, 1):        N = (1 + f) / 2,  f = sqrt(2P - 1)
* rank 3, P in [1/3, 1):        N = (1 + g) / 3,  g = sqrt(6P - 2)
* triply degenerate smallest eigenvalue, P in (1/5, 1): two branches split at
  P = 3/8; below it N = (5h - 1) / 3 with h = sqrt(6P/5 - 1/5), above it the
  rank-3 curve.

Every curve, spectrum and construction takes a purity or an array of them;
an array gives arrays (constructions: one XState holding the n states).
FAMILIES holds one Family record per curve, keyed by theorem id: its domain,
public functions and certificate data, for the library and the CLI alike.

Optimality of each curve is certified numerically by explicit dual-feasible
matrices for the corresponding semidefinite program (verify_certificate); at
the domain endpoints P = 1/2 (rank 2) and P = 1/3 (rank 3) the dual matrix is
only asymptotically positive semidefinite along a one-parameter family, and
the report flags that.

hedemann_negativity evaluates the earlier candidate curve from the literature
for comparison; its printed low-purity branch has a negative radicand on most
of (1/5, 3/8), in which case None is returned rather than a complex value.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import _real_array, eig_hermitian
from .spectrum import construct_spectrum_xmems

__all__ = [
    "DomainError",
    "FAMILIES",
    "n_x_p_rank2",
    "n_x_p_rank3",
    "n_x_p_deg",
    "construct_rank2",
    "construct_rank3",
    "construct_deg",
    "rank2_spectrum",
    "rank3_spectrum",
    "deg_spectrum",
    "hedemann_negativity",
    "CertificateReport",
    "verify_certificate",
]

DEG_SPLIT = 3.0 / 8.0


class DomainError(ValueError):
    """Caller input outside its domain (a purity, a restart count)."""


@dataclass(frozen=True)
class Family:
    """One fixed-purity family: purity domain [lo, 1), or (lo, 1) if lo_open;
    label in domain errors; `curves` column; public curve, spectrum and
    construction; SDP certificate data.

    The primal SDP is n x n in m = len(c) = n - 2 variables x, optimal at
    the top m eigenvalues of spectrum(P): F(x) = F_0(P) + sum_i x_i F_i is
    PSD, where F_0(P) is the constant F0 (rows as tuples) with P - shift at
    (n-1, n-1), and F_i has -1 at (0, 0), 1 at (i, n-1) and (n-1, i), and
    corner at (n-1, n-1); there |c . x| = curve(P) + offset.  For a 1-D
    array of purities, dual(P) gives (y, s, z00) per purity for the
    dual-feasible matrix y y^T / s + z00 E_00, rank one outside its (0, 0)
    entry; y_0 = 0, so it is PSD exactly when s > 0 and z00 >= 0, its least
    eigenvalue being min(0, z00, y.y / s).  At a closed lower end the dual
    is PSD only as z -> infinity along boundary_dual(z), whose two nonzero
    eigenvalues are boundary_eigs(z) = (lambda_-, lambda_+)."""

    lo: float
    lo_open: bool
    label: str
    column: str
    curve: object
    spectrum: object
    construct: object
    F0: tuple
    shift: float
    corner: float
    c: tuple
    dual: object
    offset: float = 0.0
    boundary_dual: object = None
    boundary_eigs: object = None

    @property
    def domain(self):
        return f"{'(' if self.lo_open else '['}{self.lo}, 1)"

    def contains(self, P):
        """Elementwise domain membership of P; False for NaN."""
        return ((self.lo < P) if self.lo_open else (self.lo <= P)) & (P < 1.0)

    def check(self, P, label=None):
        """P as a float (or float array) if all of it lies in the domain, else
        a DomainError naming the first purity outside (NaN included); a
        TypeError naming P if it is not real numbers; a ValueError if it has
        more than one dimension."""
        arr = _real_array(P, "purity")
        if arr.ndim > 1:
            raise ValueError(f"purities must be a float or a 1-D array, got shape {arr.shape}")
        ok = self.contains(arr)
        if not ok.all():
            bad = P if arr.ndim == 0 else np.ravel(arr)[np.argmin(np.ravel(ok))]
            raise DomainError(f"purity {bad} outside {label or self.label} domain {self.domain}")
        return arr if arr.ndim else float(arr)


def _out(values):
    """A float for a scalar purity, the array for an array of purities."""
    return float(values) if np.ndim(values) == 0 else values


def _columns(*entries):
    """Per-purity entries (arrays or constants) as the columns of one array:
    six give (..., 6) spectra."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1)


def _f(P):
    return np.sqrt(2.0 * P - 1.0)


def _g(P):
    return np.sqrt(6.0 * P - 2.0)


def _h(P):
    return np.sqrt(6.0 * P / 5.0 - 1.0 / 5.0)


# The rank-3 expressions, reused by the degenerate family's upper branch:
# (1 + g)/3 is the ceiling and top eigenvalue, (2 - g)/6 the doubly degenerate one.
def _top3(g):
    return (1.0 + g) / 3.0


def _pair3(g):
    return (2.0 - g) / 6.0


def _branches(P):
    """(P < 3/8, h, g) on the degenerate domain; g is taken at max(P, 3/8),
    its value wherever the upper (rank-3) branch uses it, so it is real
    everywhere."""
    return P < DEG_SPLIT, _h(P), _g(np.maximum(P, DEG_SPLIT))


def n_x_p_rank2(P):
    """Maximal negativity of rank-2 X states of purity P in [1/2, 1)."""
    return _out(0.5 * (1.0 + _f(FAMILIES["rank2"].check(P))))


def n_x_p_rank3(P):
    """Maximal negativity of rank-3 X states of purity P in [1/3, 1)."""
    return _out(_top3(_g(FAMILIES["rank3"].check(P))))


def n_x_p_deg(P):
    """Maximal negativity of X states of purity P in (1/5, 1) whose smallest
    eigenvalue is triply degenerate.  Continuous at the branch point 3/8."""
    below, h, g = _branches(FAMILIES["deg"].check(P))
    return _out(np.where(below, (-1.0 + 5.0 * h) / 3.0, _top3(g)))


def rank2_spectrum(P):
    l1 = 0.5 * (1.0 + _f(FAMILIES["rank2"].check(P)))
    return _columns(l1, 1.0 - l1, 0.0, 0.0, 0.0, 0.0)


def rank3_spectrum(P):
    g = _g(FAMILIES["rank3"].check(P))
    l2 = _pair3(g)
    return _columns(_top3(g), l2, l2, 0.0, 0.0, 0.0)


def deg_spectrum(P):
    below, h, g = _branches(FAMILIES["deg"].check(P))
    l1 = np.where(below, (1.0 + 4.0 * h) / 6.0, _top3(g))
    l2 = np.where(below, (1.0 + h) / 6.0, _pair3(g))
    ld = np.where(below, (1.0 - 2.0 * h) / 6.0, 0.0)
    return _columns(l1, l2, l2, ld, ld, ld)


def construct_rank2(P):
    """Rank-2 X state of purity P attaining n_x_p_rank2(P)."""
    return construct_spectrum_xmems(rank2_spectrum(P))


def construct_rank3(P):
    """Rank-3 X state of purity P attaining n_x_p_rank3(P)."""
    return construct_spectrum_xmems(rank3_spectrum(P))


def construct_deg(P):
    """Triply-degenerate-bottom X state of purity P attaining n_x_p_deg(P)."""
    return construct_spectrum_xmems(deg_spectrum(P))


def hedemann_negativity(P):
    """Earlier candidate maximal-negativity curve, evaluated literally.

    On [3/8, 1) it coincides with n_x_p_deg.  On (1/5, 3/8) the printed
    expression involves sqrt((-1+e)^2 - 25 e^2 / 4) with e = sqrt(40P/7 - 8/7),
    whose radicand is negative for P above roughly 3/14; None is returned
    there instead of a non-real value (NaN in the entries of an array result).
    """
    P = FAMILIES["deg"].check(P, "comparison-curve")
    below, _, g = _branches(P)
    e = np.sqrt(40.0 * P / 7.0 - 8.0 / 7.0)
    radicand = np.float_power(-1.0 + e, 2) - 6.25 * e * e
    low = 0.2 * (-1.0 + e + np.sqrt(np.where(radicand < 0.0, np.nan, radicand)))
    values = np.where(below, low, _top3(g))
    return None if values.ndim == 0 and np.isnan(values) else _out(values)


# ---------------------------------------------------------------------------
# Certificate data, one set per family: primal constants on the records below
# ---------------------------------------------------------------------------


def _boundary_eigs(m, s, c):
    """(m - s, m + s) as floats, where s^2 - m^2 = c > 0; the negative one is
    rationalized as -c / (m + s), since the naive difference cancels."""
    return float(-c / (m + s)), float(m + s)


def _rank2_dual(P):
    f = _f(P)
    return _columns(0.0, 1.0 + f, -1.0), 2.0 * f, 0.0


def _rank3_dual(P):
    g = _g(P)
    return _columns(0.0, 1.0 + g / 2.0, 1.0, -1.0), g, 0.0


def _deg_dual(P):
    below, h, g = _branches(P)
    mid = np.where(below, 1.5 * h + 1.0, 2.0 - g / 2.0)
    y = _columns(0.0, np.where(below, 3.0 * h + 1.0, g + 2.0), mid, mid, -3.0)
    return y, np.where(below, 9.0 * h, 9.0 * g), np.where(below, 0.0, 4.0 / 3.0 - 2.0 / (3.0 * g))


# Family(lo, lo_open, label, column, curve, spectrum, construct, F0, shift, corner, c, dual, ...)
FAMILIES = {
    "rank2": Family(
        0.5, False, "rank-2", "N2", n_x_p_rank2, rank2_spectrum, construct_rank2,
        ((1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.0)), 1.0, 2.0, (-1.0,), _rank2_dual,
        boundary_dual=lambda z: np.array([[0, 0, 0], [0, z, 0.5 - z], [0, 0.5 - z, z - 1.0]]),
        # z - 1/2 -+ sqrt(z^2 - z + 1/2)
        boundary_eigs=lambda z: _boundary_eigs(z - 0.5, np.sqrt(z * z - z + 0.5), 0.25),
    ),
    "rank3": Family(
        1.0 / 3.0, False, "rank-3", "N3", n_x_p_rank3, rank3_spectrum, construct_rank3,
        ((1.0, 0.0, 0.0, 0.0), (0.0, 2.0 / 3.0, -1.0 / 3.0, 0.0),
         (0.0, -1.0 / 3.0, 2.0 / 3.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
        1.0, 2.0, (-1.0, 0.0), _rank3_dual,
        boundary_dual=lambda z: np.array(
            [[0, 0, 0, 0], [0, z, z - 0.5, -z + 0.5],
             [0, z - 0.5, z - 1.0, -z + 1.0], [0, -z + 0.5, -z + 1.0, z - 1.0]]
        ),
        # 3z/2 - 1 -+ (sqrt(3)/2) sqrt(3z^2 - 4z + 2)
        boundary_eigs=lambda z: _boundary_eigs(
            1.5 * z - 1.0, 0.5 * np.sqrt(3.0) * np.sqrt(3.0 * z * z - 4.0 * z + 2.0), 0.5
        ),
    ),
    "deg": Family(
        0.2, True, "degenerate", "Ndeg", n_x_p_deg, deg_spectrum, construct_deg,
        # F0: 5/6 on the diagonal and -1/6 off it in rows 1..3; |c . x| = curve + 1
        ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 5.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0, 0.0),
         (0.0, -1.0 / 6.0, 5.0 / 6.0, -1.0 / 6.0, 0.0),
         (0.0, -1.0 / 6.0, -1.0 / 6.0, 5.0 / 6.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)),
        1.0 / 3.0, 2.0 / 3.0, (-2.0, -1.0, -1.0), _deg_dual, offset=1.0,
    ),
}
THEOREMS = tuple(FAMILIES)


@dataclass
class CertificateReport:
    """Numerical verification record for one (theorem, purity) certificate."""

    theorem_id: str
    P: float
    primal_feasible: bool
    primal_min_eig: float
    dual_trace_residuals: list
    dual_psd_margin: float
    asymptotic: bool
    duality_gap: float
    asymptotic_tail: list = field(default_factory=list)
    verified: bool = False

    def to_dict(self):
        return {k: list(v) if isinstance(v, list) else v for k, v in vars(self).items()}


def verify_certificate(theorem_id, P, tol=1e-10):
    """Check the optimality certificate of one closed-form curve at purity P.

    Verifies (a) primal feasibility of the closed-form spectrum, (b) the dual
    trace conditions, (c) positive semidefiniteness of the dual matrix (or,
    where its scale s is 0, of its asymptotic limit), and (d) a vanishing gap
    between primal and dual objective values, each within `tol`.  The
    interior dual's PSD margin is min(0, z00, y.y / s), read from its
    structure (PSD exactly when s > 0 and z00 >= 0, as y_0 = 0) without an
    eigendecomposition.  Returns the full report; ``report.verified`` is the
    verdict, False if any check fails.  A 1-D array of purities gives a list
    of one report per purity, each equal to the scalar call.  A primal
    objective that does not reproduce the curve value (a transcription error
    in the certificate data) raises RuntimeError naming the first such purity.
    """
    if not isinstance(theorem_id, str) or theorem_id not in FAMILIES:
        raise ValueError(f"unknown theorem id {theorem_id!r}; expected one of {THEOREMS}")
    is_bool = isinstance(tol, (bool, np.bool_))
    if not is_bool and (np.ndim(tol) or np.asarray(tol).dtype.kind not in "iuf"):
        raise TypeError(f"tol {tol!r} is not a real number")
    if is_bool or not (np.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    fam = FAMILIES[theorem_id]
    grid = np.atleast_1d(fam.check(P))
    F0 = np.repeat(np.array(fam.F0)[None], len(grid), axis=0)
    F0[:, -1, -1] = grid - fam.shift
    n, m = len(fam.F0), len(fam.c)
    Fs = np.zeros((m, n, n))
    Fs[:, 0, 0], Fs[:, -1, -1] = -1.0, fam.corner
    Fs[:, 1:-1, -1] = Fs[:, -1, 1:-1] = np.eye(m)
    c, x = np.array(fam.c), fam.spectrum(grid)[:, :m]
    expected = fam.curve(grid) + fam.offset
    Fx = F0 + sum(x[:, i, None, None] * Fi for i, Fi in enumerate(Fs))
    primal_min = eig_hermitian(Fx)[0][:, 0]
    primal_obj = x @ c
    # The dual objective equals the primal one, which maps back to the curve
    # value: a transcription bug in the certificate data would surface here.
    off = ~(np.abs(np.abs(primal_obj) - expected) <= 1e-9)
    if off.any():
        i = int(np.argmax(off))
        raise RuntimeError(
            f"certificate data for {theorem_id} at P={grid[i]} do not reproduce the curve: "
            f"primal objective {float(primal_obj[i])!r}, expected "
            f"{float(np.broadcast_to(expected, off.shape)[i])!r} up to sign"
        )

    y, s, z00 = fam.dual(grid)
    asymptotic = s == 0  # the closed lower ends, where y y^T / s does not exist
    s = np.where(asymptotic, np.inf, s)  # Z and margin 0 there until set below
    Z = y[:, :, None] * y[:, None, :] / s[:, None, None]
    Z[:, 0, 0] += z00
    margin = np.minimum(0.0, np.minimum(z00, np.sum(y * y, axis=1) / s))
    tail, psd_ok = [], margin >= -tol
    if asymptotic.any():
        # PSD only in the limit: the lone negative eigenvalue must shrink to 0
        # monotonically along z, all others staying nonnegative.  Evaluated in
        # rationalized form; the naive difference cancels catastrophically.
        Z[asymptotic] = fam.boundary_dual(1.0)
        eigs = [fam.boundary_eigs(z) for z in (1e3, 1e6, 1e9)]
        tail = [minus for minus, _ in eigs]
        margin[asymptotic] = tail[-1]
        psd_ok[asymptotic] = (
            all(t < 0.0 for t in tail)
            and tail[0] < tail[1] < tail[2]
            and tail[2] > -1e-6
            and all(plus >= 0.0 for _, plus in eigs)
        )

    residuals = np.trace(Fs @ Z[:, None], axis1=-2, axis2=-1) - c
    gap = np.abs(primal_obj + np.trace(F0 @ Z, axis1=-2, axis2=-1))
    feasible = primal_min >= -tol
    verified = feasible & psd_ok & np.all(np.abs(residuals) <= tol, axis=1) & (gap <= tol)
    columns = (grid, feasible, primal_min, residuals, margin, asymptotic, gap, verified)
    reports = [
        CertificateReport(theorem_id, p, fe, low, res, m, asym, g, list(tail) if asym else [], ok)
        for p, fe, low, res, m, asym, g, ok in zip(*(col.tolist() for col in columns))
    ]
    return reports if np.ndim(P) else reports[0]
