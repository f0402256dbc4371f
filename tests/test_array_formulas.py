"""Equivalence of the array formulas with the scalar closed forms.

The X-block eigenvalues (qqmems.xstate), the 90-pair table (qqmems.spectrum)
and the TGX block formula (qqmems.tgx) evaluate whole batches; each test
compares a batch against the textbook formula evaluated one scalar row at a
time, and against the independent oracles where one applies.
"""

import numpy as np
import pytest

from qqmems.cli import _BLOCK, main
from qqmems.linalg import negativity, partial_transpose_qubit, random_spectrum
from qqmems.purity_mems import (
    deg_spectrum,
    hedemann_negativity,
    n_x_p_deg,
    n_x_p_rank2,
    n_x_p_rank3,
    rank2_spectrum,
    rank3_spectrum,
)
from qqmems.spectrum import (
    OPTIMAL_SEQUENCE,
    _pair_table,
    all_sequences,
    best_sequence_bruteforce,
    construct_spectrum_xmems,
    n_x_lambda,
    s_value,
)
from qqmems.tgx import _tgx_formula
from qqmems.xstate import XState, _x_pt_minus_eigs, x_negativity

from oracles import negativity_neg_eigs, tgx2_formula, tgx3_formula


def _random_params(rng, n):
    """(n, 3) arrays a, b, r of n random valid X states."""
    w = rng.exponential(size=(n, 6))
    w /= w.sum(axis=1, keepdims=True)
    a, b = w[:, :3], w[:, 3:]
    return a, b, rng.uniform(0, 1, (n, 3)) * np.sqrt(a * b)


def _pair_value(lam, i, j, k, el):
    """The fixed-spectrum pair value for one spectrum, in float64 scalars,
    squaring by products as the X-block eigenvalues do (scalar ``**`` calls
    libm ``pow``, which can round differently)."""
    dij, dkl = lam[i] - lam[j], lam[k] - lam[el]
    return -(lam[i] + lam[j]) + np.sqrt(dij * dij + dkl * dkl)


def _assignment_states(lams):
    """(n, 90, 6, 6) X states, one per spectrum of the (n, 6) stack and per
    assignment (i, j, k, l) of all_sequences(): (lam_i, lam_j) on block 1's
    diagonal, (lam_k, lam_l) mixed maximally in block 3, the other two on
    block 2's diagonal."""
    rho = np.zeros((len(lams), 90, 6, 6))
    for q, seq in enumerate(all_sequences()):
        i, j, k, el = (m - 1 for m in seq)
        m, n = (x for x in range(6) if x not in (i, j, k, el))
        rho[:, q, 0, 0], rho[:, q, 5, 5] = lams[:, i], lams[:, j]
        rho[:, q, 1, 1], rho[:, q, 4, 4] = lams[:, m], lams[:, n]
        rho[:, q, 2, 2] = rho[:, q, 3, 3] = 0.5 * (lams[:, k] + lams[:, el])
        rho[:, q, 2, 3] = rho[:, q, 3, 2] = 0.5 * (lams[:, k] - lams[:, el])
    return rho


def _tied_and_rank_deficient_spectra(rng, count):
    """The uniform, pure and other tied spectra, then `count` descending
    spectra of small integer weights: ties and zero eigenvalues throughout."""
    w = rng.integers(0, 4, size=(count, 6)).astype(float)
    w[w.sum(axis=1) == 0.0] = 1.0
    drawn = -np.sort(-w / w.sum(axis=1, keepdims=True), axis=1)
    fixed = [
        np.full(6, 1.0 / 6.0),
        [0.4, 0.2, 0.2, 0.1, 0.1, 0.0],
        [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0],
    ]
    return np.vstack([fixed, drawn])


def _scan_loop(lam):
    """First strict maximum over the 90 sequences in enumeration order."""
    best_seq, best = None, -np.inf
    for seq in all_sequences():
        v = _pair_value(lam, *(m - 1 for m in seq))
        if v > best:
            best_seq, best = seq, v
    return best_seq, best


def test_x_pt_minus_eigs_matches_scalar_closed_form_and_oracle(rng):
    a, b, r = _random_params(rng, 600)
    eigs = _x_pt_minus_eigs(a, b, r)
    assert eigs.shape == (600, 2)
    for m, ((a1, _, a3), (b1, _, b3), (r1, _, r3)) in enumerate(zip(a, b, r)):
        lam1 = 0.5 * (a1 + b1) - np.sqrt(r3 * r3 + (0.5 * (b1 - a1)) ** 2)
        lam3 = 0.5 * (a3 + b3) - np.sqrt(r1 * r1 + (0.5 * (b3 - a3)) ** 2)
        assert abs(eigs[m, 0] - lam1) <= 1e-15 and abs(eigs[m, 1] - lam3) <= 1e-15
    for m in range(0, 600, 30):
        rho = XState(a=a[m], b=b[m], r=r[m]).to_matrix()
        dense = np.linalg.eigvalsh(partial_transpose_qubit(rho))
        # both candidates are eigenvalues of the dense partial transpose
        assert np.min(np.abs(dense[:, None] - eigs[m][None, :]), axis=0).max() <= 1e-14
        closed = 2.0 * max(0.0, -eigs[m].min())
        assert abs(closed - negativity_neg_eigs(rho)) <= 1e-12


def test_pair_table_equals_scalar_formula_bitwise(rng):
    spectra = random_spectrum(rng, count=2 * _BLOCK + 3)
    table = _pair_table(spectra)
    assert table.shape == (len(spectra), 90)
    quads = [tuple(s - 1 for s in seq) for seq in all_sequences()]
    expected = [[_pair_value(lam, *quad) for quad in quads] for lam in spectra]
    assert np.array_equal(table, expected)


def test_pair_table_is_the_negativity_of_each_assignments_state(rng):
    # The table's own X-block arithmetic against the dense trace norm of the
    # state each of the 90 assignments defines.
    lams = np.vstack([random_spectrum(rng, count=200), _tied_and_rank_deficient_spectra(rng, 60)])
    rho = _assignment_states(lams)
    assert np.abs(np.linalg.eigvalsh(rho)[..., ::-1] - lams[:, None, :]).max() <= 1e-12
    dense = negativity(rho)
    assert np.abs(np.maximum(0.0, _pair_table(lams)) - dense).max() <= 1e-12


def test_n_x_lambda_is_the_closed_form_negativity_of_its_state_bitwise(rng):
    lams = np.vstack(
        [random_spectrum(rng, count=20_000), _tied_and_rank_deficient_spectra(rng, 200)]
    )
    closed = x_negativity(construct_spectrum_xmems(lams))
    assert np.array_equal(np.maximum(0.0, n_x_lambda(lams)), closed)


def test_argmax_keeps_lexicographic_tie_rule(rng):
    tied = np.array(
        [
            np.full(6, 1.0 / 6.0),
            [0.4, 0.2, 0.2, 0.1, 0.1, 0.0],
            [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    spectra = np.vstack([tied, random_spectrum(rng, count=40)])
    seqs, values = best_sequence_bruteforce(spectra)
    for m, lam in enumerate(spectra):
        seq, value = _scan_loop(lam)
        assert tuple(seqs[m]) == seq and values[m] == value
        assert best_sequence_bruteforce(lam) == (seq, value)
    assert best_sequence_bruteforce(tied[0])[0] == (1, 2, 3, 4)


def test_stacked_spectrum_draws_equal_single_draws():
    a = random_spectrum(np.random.default_rng(3), count=2 * _BLOCK + 1)
    rng = np.random.default_rng(3)
    b = np.array([random_spectrum(rng) for _ in range(2 * _BLOCK + 1)])
    assert np.array_equal(a, b)


def test_prop1_blocks_equal_one_spectrum_at_a_time(tmp_path, capsys):
    count = 2 * _BLOCK + 1
    rng = np.random.default_rng(4)
    worst, violations = 0.0, 0
    for _ in range(count):
        lam = random_spectrum(rng)
        dev = abs(_scan_loop(lam)[1] - s_value(lam, OPTIMAL_SEQUENCE))
        worst = max(worst, dev)
        violations += dev > 1e-12
    out = tmp_path / "prop1.txt"
    assert main(["prop1", "--count", str(count), "--seed", "4", "-o", str(out)]) == 0
    text = out.read_text()
    assert f"spectra tested: {count}\n" in text
    assert f"violations (|brute-force - closed form| > 1e-12): {violations}\n" in text
    assert f"worst deviation: {float(worst):.17g}\n" in text


def test_batched_purity_curves_equal_scalar_calls():
    P = np.linspace(0.2 + 1e-9, 0.999, 1001)
    for fn, inside in (
        (n_x_p_rank2, P >= 0.5),
        (n_x_p_rank3, P >= 1.0 / 3.0),
        (n_x_p_deg, P > 0.2),
        (hedemann_negativity, P > 0.2),
    ):
        batch = fn(P[inside])
        scalar = [fn(float(p)) for p in P[inside]]
        assert all(isinstance(v, float) or v is None for v in scalar)
        scalar = np.array([np.nan if v is None else v for v in scalar])
        assert np.array_equal(batch, scalar, equal_nan=True), fn.__name__
    assert np.isnan(hedemann_negativity(P[P < 0.3])).any()
    for fn, inside in (
        (rank2_spectrum, P >= 0.5),
        (rank3_spectrum, P >= 1.0 / 3.0),
        (deg_spectrum, P > 0.2),
    ):
        assert np.array_equal(fn(P[inside]), np.array([fn(float(p)) for p in P[inside]]))


@pytest.mark.parametrize("k", [2, 3])
def test_stacked_tgx_formula_equals_its_scalar_calls_bitwise(rng, k):
    th = rng.uniform(0, np.pi, (2000, k))
    p = rng.dirichlet(np.ones(k), 2000)
    out = _tgx_formula(th, p)
    assert out.shape == (2000,)
    assert np.array_equal(out, [_tgx_formula(t, q) for t, q in zip(th, p)])
    # strided columns, as the search passes its points
    x = np.column_stack([th, p])
    assert np.array_equal(_tgx_formula(x[:, :k], x[:, k:]), out)


def test_printed_tgx_formulas_agree_with_the_block_formula(rng):
    th = rng.uniform(0, np.pi, (2000, 3))
    p = rng.dirichlet(np.ones(3), 2000)
    out3 = _tgx_formula(th, p)
    assert np.abs(tgx3_formula(*th.T, *p.T) - out3).max() <= 1e-15
    p2 = np.column_stack([p[:, 0], 1 - p[:, 0]])
    out2 = _tgx_formula(th[:, :2], p2)
    assert np.abs(tgx2_formula(*th[:, :2].T, *p2.T) - out2).max() <= 1e-15
