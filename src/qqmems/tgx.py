"""Rank-2 and rank-3 TGX candidate states and their negativity maximization.

The TGX ("true-generalized X") families are non-X sparse candidates: mixtures
of p-weighted pure states c|0b> + s|1b'> on complementary index pairs.  Their
negativities admit printed closed forms; maximizing them at fixed purity shows
a strict gap over the rank-2 X ceiling and numerical coincidence with the
rank-3 X ceiling.
"""

from dataclasses import dataclass, asdict

import numpy as np

from . import _kernels
from ._nelder_mead import nelder_mead
from .linalg import negativity
from .purity_mems import FAMILIES, P_MAX, DomainError, rank3_spectrum

__all__ = [
    "Tgx2Params",
    "Tgx3Params",
    "MaximizationResult",
    "tgx2_matrix",
    "tgx3_matrix",
    "tgx2_negativity",
    "tgx3_negativity",
    "maximize_tgx2",
    "maximize_tgx3",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Tgx2Params:
    theta1: float
    theta2: float
    p1: float
    p2: float

    def __post_init__(self):
        if self.p1 <= 0 or self.p2 <= 0:
            raise ValueError("probabilities must be positive")
        if abs(self.p1 + self.p2 - 1.0) > _PROB_TOL:
            raise ValueError(f"p1 + p2 = {self.p1 + self.p2}, expected 1")


@dataclass(frozen=True)
class Tgx3Params:
    theta1: float
    theta2: float
    theta3: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        if min(self.p1, self.p2, self.p3) <= 0:
            raise ValueError("probabilities must be positive")
        if abs(self.p1 + self.p2 + self.p3 - 1.0) > _PROB_TOL:
            raise ValueError(f"p1 + p2 + p3 = {self.p1 + self.p2 + self.p3}, expected 1")


def _pure_block(rho, p, theta, i, j):
    c, s = np.cos(theta), np.sin(theta)
    rho[i, i] += p * c * c
    rho[j, j] += p * s * s
    rho[i, j] += p * s * c
    rho[j, i] += p * s * c


def tgx2_matrix(q):
    """Density matrix p1 |v1><v1| + p2 |v2><v2| with v1 = c1|00> + s1|12>,
    v2 = c2|01> + s2|10>."""
    rho = np.zeros((6, 6), dtype=complex)
    _pure_block(rho, q.p1, q.theta1, 0, 5)
    _pure_block(rho, q.p2, q.theta2, 1, 3)
    return rho


def tgx3_matrix(q):
    """Rank-3 variant, adding v3 = c3|02> + s3|11> with weight p3."""
    rho = np.zeros((6, 6), dtype=complex)
    _pure_block(rho, q.p1, q.theta1, 0, 5)
    _pure_block(rho, q.p2, q.theta2, 1, 3)
    _pure_block(rho, q.p3, q.theta3, 2, 4)
    return rho


def tgx2_negativity(q):
    """Closed-form negativity of the rank-2 TGX state."""
    return float(_kernels.tgx2_negativity_kernel(q.theta1, q.theta2, q.p1, q.p2))


def tgx3_negativity(q):
    """Closed-form negativity of the rank-3 TGX state."""
    return float(
        _kernels.tgx3_negativity_kernel(q.theta1, q.theta2, q.theta3, q.p1, q.p2, q.p3)
    )


@dataclass
class MaximizationResult:
    """Best state found by a multistart search at purity P.

    ``converged`` is the status of the winning Nelder-Mead run;
    ``restarts_converged`` counts all runs (the ``restarts_used`` free starts
    plus, at rank 3, the 12 structured ones) that met xatol/fatol, and
    ``nfev`` sums their objective evaluations.
    """

    P: float
    best_value: float
    best_params: object
    restarts_used: int
    converged: bool
    nfev: int
    restarts_converged: int
    formula_oracle_mismatches: int = 0

    def to_dict(self):
        d = asdict(self)
        d["best_params"] = asdict(self.best_params)
        return d


_NM_OPTIONS = {"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000, "maxfev": 4000}


def _check_restarts(restarts):
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")


def maximize_tgx2(P, restarts=32, rng=None):
    """Maximize rank-2 TGX negativity over (theta1, theta2) at fixed purity.

    The probabilities are pinned by P: p1 = (1 + f)/2, p2 = (1 - f)/2 with
    f = sqrt(2P - 1).  Derivative-free (the objective has |.|-type kinks),
    with random multistart run in lockstep; deterministic under a fixed rng
    seed.
    """
    FAMILIES["rank2"].check(P)
    _check_restarts(restarts)
    P = min(P, P_MAX)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    f = np.sqrt(2.0 * P - 1.0)
    p1, p2 = 0.5 * (1.0 + f), 0.5 * (1.0 - f)

    def neg_obj(th, members):
        return -_kernels.tgx2_negativity_kernel(th[:, 0], th[:, 1], p1, p2)

    starts = np.array([rng.uniform(0.0, np.pi, size=2) for _ in range(restarts)])
    res = nelder_mead(neg_obj, starts, **_NM_OPTIONS)
    win = int(np.argmin(res.fun))  # first best, as a strict ">" scan picks
    best_th = res.x[win]
    params = Tgx2Params(theta1=float(best_th[0]), theta2=float(best_th[1]), p1=p1, p2=p2)
    return _finish(P, params, restarts, [res], win, tgx2_negativity, tgx2_matrix)


def maximize_tgx3(P, restarts=32, rng=None):
    """Maximize rank-3 TGX negativity at fixed purity.

    The feasible probability triple (simplex plane intersected with the purity
    sphere) is a circle around (1/3, 1/3, 1/3) of radius sqrt(P - 1/3); it is
    parametrized by one angle, giving an unconstrained 4-variable problem over
    (theta1, theta2, theta3, t).  Points with any p_i <= 0 are rejected.
    """
    FAMILIES["rank3"].check(P)
    _check_restarts(restarts)
    P = min(P, P_MAX)
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    radius = np.sqrt(max(P - 1.0 / 3.0, 0.0))
    u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    centroid = np.full(3, 1.0 / 3.0)

    def probs(t):
        t = np.asarray(t)[..., None]
        return centroid + radius * (np.cos(t) * u + np.sin(t) * v)

    def neg_obj(x, members=None):
        p = probs(x[:, 3])
        val = -_kernels.tgx3_negativity_kernel(x[:, 0], x[:, 1], x[:, 2], p[:, 0], p[:, 1], p[:, 2])
        return np.where(np.min(p, axis=1) <= 0.0, 2.0, val)  # infeasible loses to any feasible

    starts = []
    for _ in range(restarts):
        x0 = np.concatenate([rng.uniform(0.0, np.pi, size=3), rng.uniform(0.0, 2.0 * np.pi, size=1)])
        for _ in range(100):  # resample the circle angle until all p_i > 0
            if np.min(probs(x0[3])) > 0.0:
                break
            x0[3] = rng.uniform(0.0, 2.0 * np.pi)
        starts.append(x0)
    free = nelder_mead(neg_obj, np.array(starts), **_NM_OPTIONS)
    # Structured passes: at high purity the full 4-variable search stalls in
    # the narrow feasible window, so additionally fix the circle angle at the
    # permutations of the two-fold-degenerate probability triple (where the
    # feasible window pinches) and search the angles alone, 4 starts each.
    head = rank3_spectrum(P)[:3]
    t_fixed = []
    for perm in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
        d = head[list(perm)] - 1.0 / 3.0
        t_fixed += [float(np.arctan2(d @ v, d @ u))] * 4
    t_fixed = np.array(t_fixed)

    def theta_obj(th, members):
        return neg_obj(np.column_stack([th, t_fixed[members]]))

    starts = np.array([rng.uniform(0.0, np.pi, size=3) for _ in t_fixed])
    fixed = nelder_mead(theta_obj, starts, **_NM_OPTIONS)
    win = int(np.argmin(np.concatenate([free.fun, fixed.fun])))  # first best
    if win < restarts:
        best_x = free.x[win]
    else:
        best_x = np.append(fixed.x[win - restarts], t_fixed[win - restarts])
    p = probs(best_x[3])
    params = Tgx3Params(
        theta1=float(best_x[0]),
        theta2=float(best_x[1]),
        theta3=float(best_x[2]),
        p1=float(p[0]),
        p2=float(p[1]),
        p3=float(p[2]),
    )
    return _finish(P, params, restarts, [free, fixed], win, tgx3_negativity, tgx3_matrix)


def _finish(P, params, restarts, runs, win, formula, matrix, tol=1e-10):
    """Re-evaluate the winner (index ``win`` into the concatenated ``runs``);
    the generic trace-norm value is authoritative if the printed formula
    disagrees beyond tolerance."""
    formula_val = formula(params)
    oracle_val = negativity(matrix(params))
    mismatches = 0
    if abs(formula_val - oracle_val) > tol:
        mismatches = 1
        best_val = oracle_val
    else:
        best_val = formula_val
    success = np.concatenate([r.success for r in runs])
    return MaximizationResult(
        P=float(P),
        best_value=float(best_val),
        best_params=params,
        restarts_used=restarts,
        converged=bool(success[win]),
        nfev=int(sum(r.nfev.sum() for r in runs)),
        restarts_converged=int(success.sum()),
        formula_oracle_mismatches=mismatches,
    )
