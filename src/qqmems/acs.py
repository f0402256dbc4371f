"""Alternate convex search for the purity-constrained negativity maximum.

The problem max tr[Pi rho^Gamma] over 0 <= Pi <= I and density matrices rho
with tr rho^2 <= P is bilinear; block-coordinate ascent alternates two exact
updates:

* Pi-step: for fixed rho, the optimum is the projector onto the strictly
  positive eigenspace of rho^Gamma (variational characterization of the trace
  norm), so -2 + 2 tr[Pi rho^Gamma] equals the negativity of rho.
* rho-step: for fixed Pi, the optimal rho commutes with Pi^Gamma, reducing the
  update to a 6-variable vector program (linear objective over the simplex
  intersected with a purity ball) solved exactly by KKT support enumeration.

Each half-step is an exact maximization, so the round values never decrease.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import eig_hermitian, partial_transpose_qubit, purity
from .purity_mems import FAMILIES

__all__ = [
    "pi_step",
    "pi_objective",
    "vector_subproblem",
    "rho_step",
    "acs_run",
    "acs_sweep",
    "AcsTrace",
    "AcsSummary",
]

STOP_INCREMENT = 1e-12


def pi_step(rho, threshold=1e-12):
    """Projector onto the strictly positive eigenspace of rho^Gamma.

    Eigenvalues within [-threshold, threshold] are excluded; their inclusion
    would be objective-neutral.
    """
    w, v = eig_hermitian(partial_transpose_qubit(rho))
    cols = v[:, w > threshold]
    return cols @ cols.conj().T


def pi_objective(pi, rho):
    """The ascent objective -2 + 2 tr[Pi rho^Gamma] (real part)."""
    return float(-2.0 + 2.0 * np.real(np.trace(pi @ partial_transpose_qubit(rho))))


def vector_subproblem(a, P):
    """Maximize a . lam over lam >= 0, sum lam = 1, sum lam^2 <= P, exactly.

    Enumerates all 63 nonempty support sets.  For each support S the KKT
    candidates are the uniform point 1/|S| (purity constraint slack) and, when
    P > 1/|S| and a is nonconstant on S, the purity-active point
    lam_i = 1/|S| + (a_i - mean_S a) / mu with mu > 0 fixed by sum lam^2 = P.
    The best feasible candidate over all supports is the exact optimum.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if not (1.0 / n - 1e-12 <= P < 1.0 + 1e-12):
        raise ValueError(f"purity bound {P} outside [1/{n}, 1)")
    best_val, best_pur, best_lam = -np.inf, np.inf, None
    for mask in range(1, 2**n):
        idx = [i for i in range(n) if mask >> i & 1]
        k = len(idx)
        a_s = a[idx]
        candidates = [np.full(k, 1.0 / k)]
        centered = a_s - a_s.mean()
        ssq = float(centered @ centered)
        if P > 1.0 / k and ssq > 0.0:
            scale = np.sqrt((P - 1.0 / k) / ssq)
            candidates.append(1.0 / k + scale * centered)
        for cand in candidates:
            pur = float(cand @ cand)
            if np.min(cand) < -1e-12 or pur > P + 1e-12:
                continue
            val = float(a_s @ cand)
            # ties (e.g. constant a) resolve to the least-pure candidate
            if val > best_val + 1e-15 or (abs(val - best_val) <= 1e-15 and pur < best_pur):
                lam = np.zeros(n)
                lam[idx] = np.clip(cand, 0.0, None)
                best_val, best_pur, best_lam = val, pur, lam
    return best_lam


def rho_step(pi, P):
    """Optimal density matrix for a fixed Pi: spectrally aligned with Pi^Gamma.

    Diagonalize Pi^Gamma with descending eigenvalues a and eigenvectors V;
    the optimal rho is V diag(lam) V^dag with lam = vector_subproblem(a, P).
    """
    FAMILIES["deg"].check(P, "ACS")
    w, v = eig_hermitian(partial_transpose_qubit(pi))
    a = w[::-1]
    v = v[:, ::-1]
    lam = vector_subproblem(a, P)
    return (v * lam) @ v.conj().T


@dataclass
class AcsTrace:
    """One run of the scheme: round values, final iterates, convergence flag."""

    P: float
    rounds: list
    final_state: np.ndarray
    final_projector: np.ndarray
    converged: bool
    rounds_used: int

    @property
    def best_value(self):
        return float(self.rounds[-1])


def acs_run(P, rho0, max_rounds=200):
    """Iterate Pi- and rho-steps from rho0 until the round increment drops
    below 1e-12 or max_rounds is hit."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if purity(rho0) > P + 1e-10:
        raise ValueError(f"initial state purity {purity(rho0)} exceeds bound {P}")
    pi = pi_step(rho0)
    rho = rho0
    rounds = [pi_objective(pi, rho)]
    converged = False
    for _ in range(max_rounds):
        rho = rho_step(pi, P)
        pi = pi_step(rho)
        rounds.append(pi_objective(pi, rho))
        if rounds[-1] - rounds[-2] < STOP_INCREMENT:
            converged = True
            break
    return AcsTrace(
        P=float(P),
        rounds=rounds,
        final_state=rho,
        final_projector=pi,
        converged=converged,
        rounds_used=len(rounds) - 1,
    )


@dataclass
class AcsSummary:
    """One sweep run; ``round_values`` is the run's AcsTrace.rounds."""

    P: float
    seed: int
    best_value: float
    reference: float
    deviation: float
    rounds: int
    converged: bool
    round_values: list


def acs_sweep(p_grid, samples_per_p, rng, max_rounds=200):
    """Run the scheme from random full-rank starts over a purity grid.

    Returns one AcsSummary per (P, sample), with the deviation taken against
    the triply-degenerate X-state ceiling at the same purity.
    """
    from .linalg import random_density_fixed_purity

    rng = np.random.default_rng(rng)
    out = []
    for P in p_grid:
        for s in range(samples_per_p):
            seed = int(rng.integers(0, 2**31 - 1))
            rho0 = random_density_fixed_purity(P, np.random.default_rng(seed))
            trace = acs_run(P, rho0, max_rounds=max_rounds)
            ref = FAMILIES["deg"].curve(P)
            out.append(
                AcsSummary(
                    P=float(P),
                    seed=seed,
                    best_value=trace.best_value,
                    reference=ref,
                    deviation=float(trace.best_value - ref),
                    rounds=trace.rounds_used,
                    converged=trace.converged,
                    round_values=trace.rounds,
                )
            )
    return out
