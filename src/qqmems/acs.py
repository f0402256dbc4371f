"""Alternate convex search for the purity-constrained negativity maximum.

The problem max tr[Pi rho^Gamma] over 0 <= Pi <= I and density matrices rho
with tr rho^2 <= P is bilinear; block-coordinate ascent alternates two exact
updates:

* Pi-step: for fixed rho, the optimum is the projector onto the strictly
  positive eigenspace of rho^Gamma (variational characterization of the trace
  norm), so -2 + 2 tr[Pi rho^Gamma] equals the negativity of rho.
* rho-step: for fixed Pi, the optimal rho commutes with Pi^Gamma, reducing the
  update to a 6-variable vector program (linear objective over the simplex
  intersected with a purity ball) solved exactly by KKT support enumeration
  over the six prefix supports of the objective sorted in descending order,
  the only supports an optimum can have.  Its answer does not change when
  the objective is shifted or scaled by a positive factor, up to rounding.

Each half-step is an exact maximization, so the round values never decrease.
The steps take (n, 6, 6) stacks, and runs advance in lockstep: one stacked
eigendecomposition per half-step for every live run, each run freezing once
its round increment drops below STOP_INCREMENT, or after MAX_ROUNDS rounds.
`acs_run` hands its whole stack of starts (one start as a stack of one) to
that loop and returns its records, one AcsTrace per run; a caller bounds the
working set by the stacks it passes.

At a PPT state (round value, the negativity, below STOP_INCREMENT) the
projector is I, whose rho-step returns I/6: a trivial fixed point.  From a
PPT state the rho-step therefore takes I - |v_min><v_min| instead, v_min the
eigenvector of the smallest eigenvalue of rho^Gamma, which the Pi-step's own
eigendecomposition gives; the round values are still the negativities, so the
trace stays monotone.  A run ends with status "converged", "stalled_ppt"
(it stopped at a PPT state all the same) or "max_rounds", and keeps its
final state, whose trace-norm negativity its last round value should equal.
Checking the final states and comparing runs with the degenerate X ceiling
are left to the caller.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    MatrixError,
    _numbers,
    _real_array,
    check_density_matrix,
    eig_hermitian,
    partial_transpose_qubit,
    purity,
)
from .purity_mems import FAMILIES

__all__ = [
    "pi_step",
    "pi_objective",
    "vector_subproblem",
    "rho_step",
    "acs_run",
    "AcsTrace",
]

STOP_INCREMENT = 1e-12
MAX_ROUNDS = 200

# Row k - 1 is the prefix support {1..k} of the descending objective,
# k = 1..6, in the order the KKT enumeration visits them.
_SUPPORTS = np.tri(6, dtype=bool)
_SIZES = np.arange(1, 7)


def _herm(m):
    return m.conj().swapaxes(-1, -2)


def _pi_half_step(rho):
    """pi_step's projector and the PPT escape I - |v_min><v_min|, both from
    one eigendecomposition of rho^Gamma."""
    w, v = eig_hermitian(partial_transpose_qubit(rho))
    cols = v * (w > 1e-12)[..., None, :]
    v_min = v[..., :1]
    return cols @ _herm(cols), np.eye(6) - v_min @ _herm(v_min)


def pi_step(rho):
    """Projector onto the strictly positive eigenspace of rho^Gamma, for a
    6x6 matrix or each of an (n, 6, 6) stack.

    Eigenvalues within [-1e-12, 1e-12] are excluded; their inclusion would be
    objective-neutral.
    """
    return _pi_half_step(rho)[0]


def pi_objective(pi, rho):
    """The ascent objective -2 + 2 tr[Pi rho^Gamma] (real part): a float, or
    an (n,) array for stacks, one projector per state."""
    pt = partial_transpose_qubit(rho)
    pi = _numbers(pi, "projector")
    if pi.shape != pt.shape:
        raise ValueError(f"expected one projector per state, got shapes {pi.shape} and {pt.shape}")
    value = -2.0 + 2.0 * np.real(np.trace(pi @ pt, axis1=-2, axis2=-1))
    return float(value) if value.ndim == 0 else value


def vector_subproblem(a, P):
    """Maximize a . lam over lam >= 0, sum lam = 1, sum lam^2 <= P, exactly.

    `a` is a (6,) vector or an (n, 6) stack, P a bound or one per row.  Each
    row is sorted in descending order (a stable sort) and only its prefix
    supports S = {1..k}, k = 1..6, are candidate sets: with the purity
    constraint active, KKT gives lam_i = max(0, a_i - nu) / (2 mu), supported
    on {i : a_i > nu}; with it slack, the least-pure optimum is uniform on the
    maximal a_i.  Both are prefixes of the sorted a.  A support's KKT points
    are the uniform point 1/|S| and, when P > 1/|S| and a is nonconstant on
    S, the purity-active point lam_i = 1/|S| + (a_i - mean_S a) / mu with
    mu > 0 fixed by sum lam^2 = P.  The best feasible candidate is the exact
    optimum; ties within 1e-15 resolve to the least-pure candidate, then to
    the shortest prefix.  lam comes back in the caller's order.

    Since sum lam = 1, lam(c a + t) = lam(a) for c > 0.  The kernel keeps
    that in floating point: it works on a less its maximum, so an exact
    shift changes no bit of lam and values round relative to the spread of
    a, not its size; it centres each candidate twice, so that the centred
    vector sums to zero to rounding however large the scale of the
    purity-active point; and it scores each candidate clipped at 0, as it
    returns it.
    """
    a = _real_array(a, "objective coefficients")
    if a.ndim not in (1, 2) or a.shape[-1] != 6:
        raise ValueError(f"expected a (6,) vector or an (n, 6) stack, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("objective coefficients must be finite")
    a2 = a.reshape(-1, 6)
    P = _real_array(P, "purity bound")
    if P.ndim and P.shape != a.shape[:-1]:
        raise ValueError(f"expected one purity bound or one per row of {a.shape}, got shape {P.shape}")
    P = np.broadcast_to(P, a2.shape[:1])
    ok = (1.0 / 6.0 <= P) & (P < 1.0)
    if not ok.all():
        raise ValueError(f"purity bound {P[np.argmin(ok)]} outside [1/6, 1)")
    order = np.argsort(-a2, axis=-1, kind="stable")
    a2 = np.take_along_axis(a2, order, axis=-1)
    a2 = a2 - a2[:, :1]
    centered = np.where(_SUPPORTS, a2[:, None, :], 0.0)
    for _ in range(2):  # the second pass takes out the first mean's rounding
        centered = np.where(_SUPPORTS, centered - (centered.sum(axis=-1) / _SIZES)[..., None], 0.0)
    ssq = np.sum(centered * centered, axis=-1)
    slack = P[:, None] - 1.0 / _SIZES
    active = (slack > 0.0) & (ssq > 0.0)
    scale = np.sqrt(np.divide(slack, ssq, out=np.zeros_like(ssq), where=active))
    uniform = _SUPPORTS / _SIZES[:, None]
    # (n, 6, 2, 6) -> (n, 12, 6): per support, uniform then purity-active;
    # an inactive support's second candidate is its uniform point again
    cand = np.stack(
        [np.broadcast_to(uniform, centered.shape), uniform + scale[..., None] * centered], axis=2
    ).reshape(len(a2), 2 * len(_SUPPORTS), 6)
    # sum and sign are judged before the clip, value and purity after it
    feasible = (cand.min(axis=-1) >= -1e-12) & (np.abs(cand.sum(axis=-1) - 1.0) <= 1e-9)
    cand = np.clip(cand, 0.0, None)
    pur = np.sum(cand * cand, axis=-1)
    val = np.sum(a2[:, None, :] * cand, axis=-1)
    feasible &= pur <= P[:, None] + 1e-12
    best = np.max(val, axis=-1, where=feasible, initial=-np.inf)
    near = feasible & (val >= best[:, None] - 1e-15)
    least = np.min(pur, axis=-1, where=near, initial=np.inf)
    pick = np.argmax(near & (pur == least[:, None]), axis=-1)
    lam = np.empty_like(a2)
    np.put_along_axis(lam, order, cand[np.arange(len(a2)), pick], axis=-1)
    return lam.reshape(a.shape)


def rho_step(pi, P):
    """Optimal density matrix for a fixed Pi: spectrally aligned with Pi^Gamma.

    Diagonalize Pi^Gamma with descending eigenvalues a and eigenvectors V;
    the optimal rho is V diag(lam) V^dag with lam = vector_subproblem(a, P).
    Takes a 6x6 Pi and a bound, or an (n, 6, 6) stack and one bound per Pi.
    """
    P = FAMILIES["deg"].check(P, "ACS")
    w, v = eig_hermitian(partial_transpose_qubit(pi))
    lam = vector_subproblem(w[..., ::-1], P)
    v = v[..., ::-1]
    return (v * lam[..., None, :]) @ _herm(v)


@dataclass(eq=False)
class AcsTrace:
    """One run of the scheme: its purity bound, round values, final state,
    and why it stopped ("converged", "stalled_ppt" or "max_rounds")."""

    P: float
    rounds: list
    final_state: np.ndarray
    status: str

    @property
    def best_value(self):
        return float(self.rounds[-1])

    @property
    def rounds_used(self):
        return len(self.rounds) - 1

    @property
    def converged(self):
        return self.status == "converged"


def _acs_lockstep(P, rho0, max_rounds):
    """Run the ascent from every start of the (n, 6, 6) stack rho0 at the
    bounds P (n,), all live runs advancing together.  A run freezes once its
    round increment drops below STOP_INCREMENT.  Returns one AcsTrace per
    start."""
    rho = np.array(rho0, dtype=complex)
    pi, escape = _pi_half_step(rho)
    last = pi_objective(pi, rho)
    rounds = [[v] for v in last.tolist()]
    status = ["max_rounds"] * len(P)
    live = np.arange(len(P))
    for _ in range(max_rounds):
        ppt = last[live] < STOP_INCREMENT
        rho[live] = rho_step(np.where(ppt[:, None, None], escape, pi), P[live])
        pi, escape = _pi_half_step(rho[live])
        value = pi_objective(pi, rho[live])
        done = value - last[live] < STOP_INCREMENT
        last[live] = value
        for i, v in zip(live, value.tolist()):
            rounds[i].append(v)
        for i in live[done]:
            status[i] = "stalled_ppt" if last[i] < STOP_INCREMENT else "converged"
        live, pi, escape = live[~done], pi[~done], escape[~done]
        if not live.size:
            break
    return [AcsTrace(float(p), r, s, st) for p, r, s, st in zip(P, rounds, rho, status)]


def acs_run(P, rho0, max_rounds=MAX_ROUNDS):
    """Iterate Pi- and rho-steps from the density matrix rho0 until the round
    increment drops below STOP_INCREMENT or max_rounds is hit.

    A float P and a 6x6 rho0 give one AcsTrace; a 1-D P and an (n, 6, 6)
    stack give a list of n, each equal to the single call with its bound and
    start.  Every bound and start is checked before any run."""
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, (int, np.integer)):
        raise ValueError(f"max_rounds must be an integer, got {max_rounds!r}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    P = FAMILIES["deg"].check(P, "ACS")
    if np.shape(rho0) != np.shape(P) + (6, 6):
        raise ValueError(
            f"expected starts of shape {np.shape(P) + (6, 6)} for purities of shape "
            f"{np.shape(P)} (a float or a 1-D array), got shape {np.shape(rho0)}"
        )
    rho0 = check_density_matrix(rho0)
    bounds, rho0 = np.ravel(P), rho0.reshape(-1, 6, 6)
    pur = purity(rho0)
    over = pur > bounds + 1e-10
    if over.any():
        i = int(np.argmax(over))
        index = (i,) if np.ndim(P) else ()
        raise MatrixError(f"initial state purity {pur[i]} exceeds bound {bounds[i]}", index)
    traces = _acs_lockstep(bounds, rho0, max_rounds)
    return traces if np.ndim(P) else traces[0]
