"""Entanglement negativity maximization for qubit-qutrit (2x3) systems.

Closed-form negativity of X states, maximal X states for a fixed spectrum or
a fixed purity (rank-2, rank-3, triply degenerate), numerical verification of
the SDP optimality certificates, TGX candidate maximization, and an alternate
convex search for the unconstrained fixed-purity maximum.
"""

from .linalg import (
    TOL,
    Tolerances,
    eig_hermitian,
    haar_unitary,
    negativity,
    partial_transpose_qubit,
    purity,
    random_density_fixed_purity,
    random_spectrum,
    trace_norm,
)
from .xstate import (
    XSpectra,
    XState,
    XStateError,
    count_negative_pt_eigs,
    from_matrix,
    random_xstate,
    x_negativity,
    x_spectra,
)
from .spectrum import (
    best_sequence_bruteforce,
    construct_spectrum_xmems,
    lemma1_check,
    n_x_lambda,
    s_value,
)
from .purity_mems import (
    CertificateReport,
    construct_deg,
    construct_rank2,
    construct_rank3,
    hedemann_negativity,
    n_x_p_deg,
    n_x_p_rank2,
    n_x_p_rank3,
    verify_certificate,
)
from .tgx import (
    MaximizationResult,
    Tgx2Params,
    Tgx3Params,
    maximize_tgx2,
    maximize_tgx3,
    tgx_matrix,
    tgx_negativity,
)
from .acs import AcsTrace, acs_run, pi_step, rho_step, vector_subproblem

__version__ = "0.1.0"
