"""Rank-2 and rank-3 TGX candidate states and their negativity maximization.

The TGX ("true-generalized X") families are non-X sparse candidates: mixtures
of p-weighted pure states c|0b> + s|1b'> on complementary index pairs.  A
state is a `TgxParams(theta, p)` record of k = 2 or 3 angles and weights;
`tgx_matrix` builds its density matrix.  Its partial transpose is three 2x2
blocks, and `tgx_negativity` evaluates the X-state block formula on them; the
paper's printed rank-2 and rank-3 formulas are the same expression.
Maximizing the negativity at fixed purity shows a strict gap over the rank-2
X ceiling and numerical coincidence with the rank-3 X ceiling.
"""

from dataclasses import dataclass, asdict

import numpy as np

from ._nelder_mead import nelder_mead
from .linalg import TRACE_TOL, _per_purity, _real_array
from .purity_mems import FAMILIES, DomainError, _f, _g
from .xstate import _block_low, _pair_blocks

__all__ = [
    "P_MAX",
    "TgxParams",
    "MaximizationResult",
    "tgx_matrix",
    "tgx_negativity",
    "maximize_tgx2",
    "maximize_tgx3",
]

# Searched purities stop here: near 1 the rank-3 arc has no point with every p_i >= 1e-12.
P_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class TgxParams:
    """The TGX state sum_k p_k |v_k><v_k|: k = 2 or 3 angles theta_k and
    probabilities p_k, each field a k-tuple of floats.

    A field that is not real is a TypeError naming it; the fields must have
    one length, 2 or 3, finite entries, every p_k > 0 and sum p_k = 1 within
    TRACE_TOL."""

    theta: tuple
    p: tuple

    def __post_init__(self):
        theta, p = (_real_array(getattr(self, name), name) for name in ("theta", "p"))
        if theta.shape not in ((2,), (3,)) or p.shape != theta.shape:
            raise ValueError(
                f"theta and p need one length, 2 or 3; got shapes {theta.shape} and {p.shape}"
            )
        for name, arr in (("theta", theta), ("p", p)):
            object.__setattr__(self, name, tuple(arr.tolist()))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.p) <= 0:
            raise ValueError("probabilities must be positive")
        if abs(sum(self.p) - 1.0) > TRACE_TOL:
            raise ValueError(f"probabilities sum to {sum(self.p)}, expected 1")


# Rows i_k, j_k: the basis pair of the state c_k|i_k> + s_k|j_k> of weight p_k.
_PAIRS = np.array([[0, 1, 2], [5, 3, 4]])


def _checked(q):
    if not isinstance(q, TgxParams):
        raise TypeError(f"expected a TgxParams, got {type(q).__name__}")
    return q


def tgx_matrix(q):
    """Density matrix sum_k p_k |v_k><v_k| of a TgxParams record (k = 1, 2 or
    k = 1, 2, 3), with v1 = c1|00> + s1|12>, v2 = c2|01> + s2|10>,
    v3 = c3|02> + s3|11>."""
    q = _checked(q)
    theta, p = np.array(q.theta), np.array(q.p)
    c, s = np.cos(theta), np.sin(theta)
    return _pair_blocks(_PAIRS[:, : len(p)], p * c * c, p * s * s, p * s * c)


def _tgx_formula(theta, p):
    """Negativity of TGX states given as (..., k) arrays theta and p, k = 2 or 3.

    rho^Gamma is three 2x2 blocks: block i has p_j sin^2 theta_j and
    p_l cos^2 theta_l on its diagonal, with j, l = i+1, i+2 mod 3, and
    p_i sin theta_i cos theta_i off it; each negative lower eigenvalue
    counts twice.  At k = 2 the missing third state weighs 0, so block 3 has
    no off-diagonal entry and only blocks 1 and 2 are evaluated.
    """
    s, c = np.sin(theta), np.cos(theta)
    ps = p * s
    u, v, r = ps * s, p * c * c, ps * c
    k = np.shape(p)[-1]
    # columns of u and v, with the missing third state's zeros at k = 2
    u, v = ([w[..., i] for i in range(k)] + [0.0] * (3 - k) for w in (u, v))
    total = 0.0
    for i in range(k):
        total = total + np.minimum(_block_low(u[(i + 1) % 3], v[(i + 2) % 3], r[..., i]), 0.0)
    return -2.0 * total


def tgx_negativity(q):
    """Closed-form negativity of the TGX state of a TgxParams record, from
    the three 2x2 blocks of its partial transpose."""
    q = _checked(q)
    return float(_tgx_formula(np.array(q.theta), np.array(q.p)))


@dataclass
class MaximizationResult:
    """Best state found by a multistart search at the searched purity P (<= P_MAX).

    ``best_value`` is `tgx_negativity` at ``best_params``; callers that
    need it checked compare it with the trace-norm negativity of the state.
    ``converged`` is the status of the winning Nelder-Mead run;
    ``restarts_converged`` counts the ``restarts_used`` runs that met
    xatol/fatol, and ``nfev`` sums their objective evaluations.
    """

    P: float
    best_value: float
    best_params: object
    restarts_used: int
    converged: bool
    nfev: int
    restarts_converged: int

    def to_dict(self):
        return asdict(self)


_NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000, "maxfev": 4000}
# Smallest probability on the searched rank-3 arc: TgxParams needs p_i > 0.
_P_FLOOR = 1e-12
_ARC_PHASES = 2.0 * np.pi / 3.0 * np.arange(3)


def _maximize(k, P, restarts, rng, consts, weights):
    """The batched multistart search behind both TGX maximizers, over the
    rank-k family.

    Each start draws k angles uniform in [0, pi), and for k = 3 then the arc
    coordinate uniform in [-pi, pi), from its purity's rng.  ``consts(P)``
    gives the per-purity constants of the family, a tuple of (n,) arrays;
    ``weights(x, *consts)`` the (..., k) probabilities at the points x.
    Every start of every purity runs in one lockstep Nelder-Mead batch.
    """
    scalar, grid, rngs = _per_purity(P, rng)
    FAMILIES[f"rank{k}"].check(grid)
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)):
        raise DomainError(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if not grid.size:
        return []
    grid = np.minimum(grid, P_MAX)
    c = consts(grid)
    starts = []
    for r in map(np.random.default_rng, rngs):
        x = r.uniform(0.0, np.pi, size=(restarts, k))
        if k == 3:
            x = np.column_stack([x, r.uniform(-np.pi, np.pi, size=restarts)])
        starts.append(x)

    def objective(x, *args):
        return -_tgx_formula(x[:, :k], weights(x, *args))

    args = [np.repeat(v, restarts) for v in c]
    res = nelder_mead(objective, np.concatenate(starts), **_NM_OPTIONS, args=args)
    results = []
    for i, Pi in enumerate(grid):
        rows = slice(i * restarts, (i + 1) * restarts)
        win = int(np.argmin(res.fun[rows]))  # first best, as a strict ">" scan picks
        x = res.x[rows][win]
        params = TgxParams(x[:k], weights(x, *(v[i] for v in c)))
        results.append(
            MaximizationResult(
                P=float(Pi),
                best_value=tgx_negativity(params),
                best_params=params,
                restarts_used=restarts,
                converged=bool(res.success[rows][win]),
                nfev=int(res.nfev[rows].sum()),
                restarts_converged=int(res.success[rows].sum()),
            )
        )
    return results[0] if scalar else results


def _tgx2_consts(P):
    f = _f(P)
    return 0.5 * (1.0 + f), 0.5 * (1.0 - f)


def _tgx2_weights(x, p1, p2):
    return np.stack([p1, p2], axis=-1)


def maximize_tgx2(P, restarts=32, rng=None):
    """Maximize rank-2 TGX negativity over (theta1, theta2) at fixed purity.

    The probabilities are pinned by P: p1 = (1 + f)/2, p2 = (1 - f)/2 with
    f = sqrt(2P - 1).  Derivative-free (the objective has |.|-type kinks),
    with ``restarts`` random starts.  P is a float, with ``rng`` a seed or
    Generator, and gives one MaximizationResult; or P is a 1-D array of
    purities, with ``rng`` a sequence of one seed or Generator per purity, and
    gives a list of one result per purity.  Each purity draws its starts from
    its own rng, so a purity's result does not depend on the rest of the
    grid; the starts of every purity run in one lockstep batch.
    """
    return _maximize(2, P, restarts, rng, _tgx2_consts, _tgx2_weights)


def _tgx3_consts(P):
    g = _g(P)
    # p2 and p3 are smallest at the arc ends: g cos(alpha + 2 pi/3) = 3 floor - 1.
    alpha = np.full_like(g, np.pi / 3.0)
    cut = g > 1.0 - 3.0 * _P_FLOOR
    alpha[cut] = np.arccos((3.0 * _P_FLOOR - 1.0) / g[cut]) - 2.0 * np.pi / 3.0
    return g, alpha


def _tgx3_weights(x, g, alpha):
    beta = (alpha * np.sin(x[..., 3]))[..., None]
    return 1.0 / 3.0 + g[..., None] / 3.0 * np.cos(beta - _ARC_PHASES)


def maximize_tgx3(P, restarts=32, rng=None):
    """Maximize rank-3 TGX negativity at fixed purity.

    The probability triples of purity P form the circle
    p_i = 1/3 + (g/3) cos(beta - 2 pi (i - 1)/3), g = sqrt(6P - 2).  The
    negativity is invariant under a joint cyclic shift of (theta_k, p_k),
    which turns that circle by 2 pi/3, so the arc |beta| <= alpha around the
    p1 vertex holds every state up to symmetry.  alpha is pi/3, less where
    the circle leaves the simplex (P > 1/2), and cut so that every p_i stays
    >= 1e-12.  With beta = alpha sin(s) the search over
    (theta1, theta2, theta3, s) is unconstrained and runs from ``restarts``
    random starts.  P and ``rng`` take the scalar or the array form of
    `maximize_tgx2`, with the same per-purity rngs and one lockstep batch.
    """
    return _maximize(3, P, restarts, rng, _tgx3_consts, _tgx3_weights)
