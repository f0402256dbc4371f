import re

import numpy as np
import pytest

from qqmems.linalg import (
    MatrixError,
    check_density_matrix,
    eig_hermitian,
    negativity,
    partial_transpose_qubit,
    _fixed_purity_spectra,
    _haar,
    purity,
    random_density,
    random_density_fixed_purity,
    random_spectrum,
    trace_norm,
)
from qqmems.purity_mems import construct_rank2, n_x_p_deg
from qqmems.xstate import XState

from oracles import (
    eigs_bisect_det,
    fixed_purity_spectrum,
    negativity_neg_eigs,
    sum_edges,
    trace_norm_variational,
)


def random_hermitian(rng, dim=6, scale=1.0):
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (A + A.conj().T) / 2.0


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(6))
        np.testing.assert_allclose(w, np.ones(6))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-11)

    def test_diagonal_sorted_ascending(self):
        w, _ = eig_hermitian(np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]))
        np.testing.assert_allclose(w, [1, 2, 3, 4, 5, 6])

    def test_against_det_bisection_oracle(self, rng):
        for _ in range(10):
            H = random_hermitian(rng)
            w, v = eig_hermitian(H)
            np.testing.assert_allclose(w, eigs_bisect_det(H), atol=1e-9)
            np.testing.assert_allclose((v * w) @ v.conj().T, H, atol=1e-11)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-11)

    def test_eigenvalue_sum_is_trace(self, rng):
        H = random_hermitian(rng)
        w, _ = eig_hermitian(H)
        assert abs(w.sum() - np.real(np.trace(H))) < 1e-11

    def test_rejects_non_hermitian(self, rng):
        H = rng.standard_normal((6, 6))
        H[0, 1] += 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(H)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.zeros((2, 3)))


def off_hermitian(dev):
    """The maximally mixed state with one entry dev above the diagonal and
    none below it: max |H - H^dag| = dev."""
    H = np.eye(6) / 6
    H[0, 1] = dev
    return H


SUM_IN, SUM_PAST = sum_edges(1e-12)
BELOW = np.nextafter(-1e-12, -1)  # one float past -PSD_SLACK
# A state check's inputs at each tolerance edge: the largest trace within
# TRACE_TOL, an eigenvalue at -PSD_SLACK, a deviation at HERMITICITY_TOL.
STATE_EDGES = [
    np.diag([0.5 + SUM_IN, 0.5, 0, 0, 0, 0]),
    np.diag([0.5 + 1e-12, 0.5, 0, 0, 0, -1e-12]),
    off_hermitian(1e-12),
]


class TestStacks:
    def test_stacked_calls_equal_per_matrix_calls_bitwise(self, rng):
        stack = np.array([random_density_fixed_purity(P, rng) for P in np.linspace(0.2, 0.9, 40)])
        w, v = eig_hermitian(stack)
        pt = partial_transpose_qubit(stack)
        norms = trace_norm(stack)
        negs = negativity(stack)
        assert w.shape == (40, 6) and v.shape == (40, 6, 6) and negs.shape == (40,)
        for m, rho in enumerate(stack):
            wm, vm = eig_hermitian(rho)
            assert np.array_equal(w[m], wm) and np.array_equal(v[m], vm)
            assert np.array_equal(pt[m], partial_transpose_qubit(rho))
            assert norms[m] == trace_norm(rho) and negs[m] == negativity(rho)

    def test_fixed_purity_stack_equals_per_purity_draws_bitwise(self):
        purities = np.linspace(0.17, 0.999, 33)
        stack = random_density_fixed_purity(purities, [np.random.default_rng(s) for s in range(33)])
        assert stack.shape == (33, 6, 6)
        for s, (P, rho) in enumerate(zip(purities, stack)):
            assert np.array_equal(rho, random_density_fixed_purity(float(P), np.random.default_rng(s)))
            assert abs(purity(rho) - P) < 1e-12
        assert random_density_fixed_purity(np.array([]), []).shape == (0, 6, 6)

    def test_fixed_purity_stack_rejects_bad_input(self):
        with pytest.raises(ValueError, match="1 rngs for 2 purities"):
            random_density_fixed_purity(np.array([0.3, 0.4]), [0])
        with pytest.raises(ValueError, match=r"purity nan outside \(1/6, 1\)"):
            random_density_fixed_purity(np.array([0.3, np.nan]), [0, 1])
        with pytest.raises(ValueError, match="sequence of one seed or Generator per purity"):
            random_density_fixed_purity(np.array([0.3, 0.4]), np.random.default_rng(0))

    def test_hermiticity_is_checked_per_matrix(self, rng):
        stack = np.array([random_hermitian(rng, scale=1e3) for _ in range(5)])
        eig_hermitian(stack)  # each within tolerance of its own conjugate transpose
        stack[3, 0, 1] += 1e-9
        stack[4, 0, 1] += 1e-6
        with pytest.raises(MatrixError, match="= 1.000e-09") as exc:  # the first offending matrix
            eig_hermitian(stack)
        assert exc.value.index == (3,)
        stack[3, 0, 1] = np.nan
        match = re.escape("non-finite entry: max |entry| = nan")
        with pytest.raises(MatrixError, match=match) as exc:
            eig_hermitian(stack)
        assert exc.value.index == (3,)

    def test_state_checks_on_a_stack_equal_per_matrix_calls(self):
        stack = random_density_fixed_purity(np.linspace(0.17, 0.999, 33), list(range(33)))
        assert np.array_equal(check_density_matrix(stack), stack)
        values = purity(stack)
        assert values.shape == (33,)
        for rho, value in zip(stack, values):
            assert np.array_equal(check_density_matrix(rho), rho)
            assert value == purity(rho)
        grid = stack.reshape(3, 11, 6, 6)
        assert np.array_equal(purity(grid), values.reshape(3, 11))
        grid[1, 4, 0, 0] += 1e-6
        with pytest.raises(MatrixError, match="trace is") as exc:
            check_density_matrix(grid)
        assert exc.value.index == (1, 4)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.triu(np.ones((6, 6))) / 6, "matrix is not Hermitian: max |H - H^dag| = 1.667e-01"),
            (np.full((6, 6), np.nan), "density matrix has a non-finite entry: max |entry| = nan"),
            (np.eye(6) / 5, "trace is 1.2, expected 1 within 1e-12"),
            (np.diag([0.5, 0.5, 0.25, 0, 0, -0.25]), "smallest eigenvalue -2.500e-01 below -1e-12"),
            # one float past each tolerance edge
            (off_hermitian(np.nextafter(1e-12, 1)), "matrix is not Hermitian: max |H - H^dag| = 1.000e-12"),
            (np.diag([0.5 + SUM_PAST, 0.5, 0, 0, 0, 0]), "trace is 1.000000000001, expected 1"),
            (np.diag([0.5 + 1e-12, 0.5, 0, 0, 0, BELOW]), "smallest eigenvalue -1.000e-12 below -1e-12"),
        ],
    )
    def test_failing_stack_names_its_first_failing_matrix(self, bad, message):
        with pytest.raises(MatrixError, match=re.escape(message)) as exc:
            check_density_matrix(np.stack([np.eye(6) / 6, bad, bad]))
        assert exc.value.index == (1,)
        with pytest.raises(MatrixError, match=re.escape(message)) as exc:
            check_density_matrix(bad)
        assert exc.value.index == ()

    @pytest.mark.parametrize("edge", range(len(STATE_EDGES)))
    def test_state_checks_accept_each_tolerance_edge(self, edge):
        rho = STATE_EDGES[edge]
        assert np.array_equal(check_density_matrix(rho), rho)
        assert np.array_equal(check_density_matrix(np.stack([np.eye(6) / 6, rho])[1]), rho)

    def test_state_checks_accept_an_imaginary_diagonal_within_hermiticity(self):
        # |H - H^dag| = 8e-13 on the diagonal: the trace is 1 + 2.4e-12j, and
        # only its real part is a trace to check.
        rho = np.eye(6) / 6 + np.diag([4e-13j] * 6)
        eig_hermitian(rho)
        assert np.array_equal(check_density_matrix(rho), rho)
        assert np.array_equal(check_density_matrix(np.stack([np.eye(6) / 6, rho]))[1], rho)

    def test_hermiticity_edge_is_not_named_before_a_failing_matrix(self):
        stack = np.stack([off_hermitian(1e-12), off_hermitian(np.nextafter(1e-12, 1))])
        eig_hermitian(stack[0])
        with pytest.raises(MatrixError, match="not Hermitian") as exc:
            eig_hermitian(stack)
        assert exc.value.index == (1,)

    def test_state_checks_run_hermiticity_then_trace_then_psd_over_the_stack(self):
        stack = np.stack(
            [np.diag([0.5, 0.5, 0.25, 0, 0, -0.25]), np.eye(6) / 5, np.triu(np.ones((6, 6))) / 6]
        )
        for k, named in ((3, "not Hermitian"), (2, "trace is"), (1, "smallest eigenvalue")):
            with pytest.raises(MatrixError, match=named) as exc:
                check_density_matrix(stack[:k])
            assert exc.value.index == (k - 1,)

    def test_empty_stack(self):
        w, v = eig_hermitian(np.zeros((0, 6, 6)))
        assert w.shape == (0, 6) and v.shape == (0, 6, 6)
        assert negativity(np.zeros((0, 6, 6))).shape == (0,)
        assert check_density_matrix(np.zeros((0, 6, 6))).shape == (0, 6, 6)
        assert purity(np.zeros((0, 6, 6))).shape == (0,)


class TestPartialTranspose:
    def test_x_state_pattern(self, rng):
        # On an X state the partial transpose swaps blocks 1 and 3 of the
        # anti-diagonal and conjugates the phases.
        x = XState(
            a=np.array([0.1, 0.15, 0.2]),
            b=np.array([0.2, 0.15, 0.2]),
            r=np.array([0.05, 0.1, 0.15]),
            phi=np.array([0.3, 1.1, 2.5]),
        )
        pt = partial_transpose_qubit(x.to_matrix())
        # Expected: same diagonal, anti-diagonal entries with r_1 <-> r_3,
        # phi_1 <-> phi_3 and i <-> -i.  Built by hand since the partial
        # transpose of a valid X state need not be positive semidefinite.
        expected = np.diag(x.to_matrix().diagonal())
        r_pt = x.r[::-1]
        phi_pt = np.array([x.phi[2], x.phi[1], x.phi[0]])
        for k, (i, j) in enumerate(((0, 5), (1, 4), (2, 3))):
            expected[i, j] = r_pt[k] * np.exp(+1j * phi_pt[k])
            expected[j, i] = np.conj(expected[i, j])
        np.testing.assert_allclose(pt, expected, atol=1e-15)

    def test_identity_fixed_point(self):
        np.testing.assert_allclose(partial_transpose_qubit(np.eye(6) / 6), np.eye(6) / 6)

    def test_involution_trace_hermiticity(self, rng):
        for _ in range(20):
            H = random_hermitian(rng)
            pt = partial_transpose_qubit(H)
            np.testing.assert_allclose(partial_transpose_qubit(pt), H)
            assert abs(np.trace(pt) - np.trace(H)) < 1e-14
            np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="6x6"):
            partial_transpose_qubit(np.eye(4))


class TestTraceNorm:
    def test_density_matrix_is_one(self, rng):
        assert abs(trace_norm(random_density_fixed_purity(0.5, rng)) - 1.0) < 1e-12

    def test_signature_example(self):
        assert abs(trace_norm(np.diag([1.0, -1.0, 0, 0, 0, 0])) - 2.0) < 1e-15

    def test_against_variational_oracle(self, rng):
        for _ in range(5):
            H = random_hermitian(rng)
            assert abs(trace_norm(H) - trace_norm_variational(H)) < 1e-8
            assert trace_norm(H) >= abs(np.real(np.trace(H))) - 1e-12


class TestNegativity:
    def test_maximally_mixed_zero(self):
        assert negativity(np.eye(6) / 6) == pytest.approx(0.0, abs=1e-14)

    def test_pure_bell_like_is_one(self):
        from qqmems.spectrum import construct_spectrum_xmems

        x = construct_spectrum_xmems(np.array([1.0, 0, 0, 0, 0, 0]))
        assert abs(negativity(x.to_matrix()) - 1.0) < 1e-12

    def test_rank2_boundary_half(self):
        assert abs(negativity(construct_rank2(0.5).to_matrix()) - 0.5) < 1e-12

    def test_matches_negative_eigenvalue_sum(self, rng):
        for P in (0.25, 0.5, 0.8):
            rho = random_density_fixed_purity(P, rng)
            assert abs(negativity(rho) - negativity_neg_eigs(rho)) < 1e-12
            assert -1e-12 <= negativity(rho) <= 1.0 + 1e-12


class TestPurity:
    def test_examples(self):
        assert purity(np.eye(6) / 6) == pytest.approx(1 / 6)
        pure = np.zeros((6, 6))
        pure[0, 0] = 1.0
        assert purity(pure) == pytest.approx(1.0)
        assert purity(np.diag([0.5, 0.5, 0, 0, 0, 0])) == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(6,), (2, 3), (2, 6, 5)])
    def test_rejects_non_square(self, shape):
        # The text of eig_hermitian's check, not numpy's diag or matmul error.
        message = f"expected a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            purity(np.ones(shape))


class TestHaarUnitary:
    # The Haar kernel behind random_density, fed (2, dim, dim) standard normals.
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_unitarity(self, dim, rng):
        U = _haar(rng.standard_normal((2, dim, dim)))
        np.testing.assert_allclose(U.conj().T @ U, np.eye(dim), atol=1e-11)
        assert abs(abs(np.linalg.det(U)) - 1.0) < 1e-11
        np.testing.assert_allclose(np.linalg.norm(U, axis=0), np.ones(dim), atol=1e-11)

    def test_dim_one_is_a_phase(self, rng):
        U = _haar(rng.standard_normal((2, 1, 1)))
        assert U.shape == (1, 1) and abs(abs(U[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_phases_leave_a_positive_r_diagonal(self, seed):
        # U is the Q of the Ginibre draw's QR with R's diagonal made positive.
        U = _haar(np.random.default_rng(seed).standard_normal((2, 6, 6)))
        g = np.random.default_rng(seed)
        z = (g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))) / np.sqrt(2.0)
        R = U.conj().T @ z
        assert np.abs(np.tril(R, -1)).max() < 1e-12
        assert np.abs(np.diag(R).imag).max() < 1e-12 and np.diag(R).real.min() > 0


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: random_spectrum(rng),
        lambda rng: random_spectrum(rng, count=4),
        lambda rng: random_density([0.3, 0.25, 0.2, 0.15, 0.07, 0.03], rng),
    ],
    ids=["random_spectrum", "random_spectrum_count", "random_density"],
)
def test_a_seed_draws_what_its_generator_draws(draw):
    np.testing.assert_array_equal(draw(5), draw(np.random.default_rng(5)))


def test_random_spectrum_of_count_zero_is_an_empty_stack():
    assert random_spectrum(np.random.default_rng(0), count=0).shape == (0, 6)


def test_random_spectrum_rejects_a_count_that_is_not_a_size():
    for count in (True, -1, 2.5, "3"):
        message = f"count must be None or an integer >= 0, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_spectrum(np.random.default_rng(0), count=count)


# Spectra in any order, with zeros, ties and pure states among random ones.
SPECTRA = np.vstack(
    [
        random_spectrum(np.random.default_rng(3), count=30),
        np.eye(6)[[0, 5]],
        np.full((1, 6), 1 / 6),
        [[0.1, 0.4, 0.0, 0.3, 0.2, 0.0], [0.25, 0.0, 0.25, 0.0, 0.25, 0.25]],
    ]
)


class TestRandomDensity:
    def test_a_stack_equals_per_row_calls_bitwise(self):
        seeds = list(range(len(SPECTRA)))
        stack = random_density(SPECTRA, seeds)
        assert stack.shape == (len(SPECTRA), 6, 6)
        for lam, seed, rho in zip(SPECTRA, seeds, stack):
            assert np.array_equal(rho, random_density(lam, np.random.default_rng(seed)))
        assert random_density(np.zeros((0, 6)), []).shape == (0, 6, 6)

    def test_states_pass_the_state_check_and_keep_their_spectrum(self):
        stack = check_density_matrix(random_density(SPECTRA, list(range(len(SPECTRA)))))
        assert np.abs(np.linalg.eigvalsh(stack) - np.sort(SPECTRA, axis=-1)).max() < 1e-12

    @pytest.mark.parametrize(
        "spectra, rng, error, match",
        [
            (np.full(5, 0.2), 0, ValueError, "spectra must have shape (6,) or (n, 6), got (5,)"),
            (SPECTRA[:6].reshape(2, 3, 6), [0] * 6, ValueError, "got (2, 3, 6)"),
            (SPECTRA[:2].T, [0] * 6, ValueError, "got (6, 2)"),
            ([[1, 0, 0, 0, 0, 0], [np.inf] * 6], [0, 1], MatrixError, "spectra entry inf is not finite"),
            ([1.1, -0.1, 0, 0, 0, 0], 0, MatrixError, "spectra entry -1.000e-01 below -1e-12"),
            ([0.5, 0.6, 0, 0, 0, 0], 0, MatrixError, "spectra row sums to 1.1, not 1 within 1e-12"),
            (SPECTRA[:2], [0], ValueError, "1 rngs for 2 rows of spectra; need one per row"),
            (SPECTRA[:2], 0, ValueError, "rng must be a sequence of one seed or Generator per row"),
            (["1", "0", "0", "0", "0", "0"], 0, TypeError, "is not a real number"),
        ],
        ids=["short", "3d", "transposed", "inf", "negative", "sum", "rng_count", "rng_single", "str"],
    )
    def test_bad_input_is_rejected_naming_the_argument(self, spectra, rng, error, match):
        with pytest.raises(error, match=re.escape(match)):
            random_density(spectra, rng)

    def test_a_failing_entry_is_located_in_its_stack(self):
        spectra = SPECTRA[:4].copy()
        spectra[2, 3] = -1e-9
        with pytest.raises(MatrixError, match="below") as exc:
            random_density(spectra, [0] * 4)
        assert exc.value.index == (2, 3)


class _Exponentials:
    """Stands in for a Generator whose one exponential draw is e."""

    def __init__(self, e):
        self.e = e

    def exponential(self, size):
        return self.e


class TestFixedPuritySpectra:
    def test_the_stacked_kernel_equals_the_row_oracle_bitwise(self):
        rng = np.random.default_rng(2024)
        n = 20_000
        e = rng.exponential(size=(n, 6))
        P = rng.uniform(1 / 6, 1.0, n)
        P[:1000] = 1 / 6 + rng.uniform(1e-16, 1e-12, 1000)
        P[1000:2000] = 1.0 - rng.uniform(1e-16, 1e-12, 1000)
        # ties for the dominant vertex: two equal largest entries, or six
        top = e[2000:3000].max(axis=1) + 1.0
        e[2000:3000, 1], e[2000:3000, 4] = top, top
        e[3000:3100] = 1.0
        P[3000:3100] = rng.uniform(0.2, 1.0, 100)
        w = e / e.sum(axis=-1, keepdims=True)
        pw = np.sum(w * w, axis=-1)
        P[3100:3200] = pw[3100:3200]  # already at its purity: the first branch
        lam = _fixed_purity_spectra(w, P)
        ref = np.array([fixed_purity_spectrum(p, _Exponentials(row)) for p, row in zip(P, e)])
        assert np.array_equal(lam, ref)
        purer = pw >= P
        assert purer[:1000].all() and not purer[1000:2000].any()
        assert 1000 < purer.sum() < n - 1000 and not purer[2000:3100].all()
        assert np.abs(np.sum(lam * lam, axis=-1) - P).max() < 1e-12

    def test_a_fixed_purity_state_conjugates_the_oracle_spectrum(self):
        # per row: the simplex draw, then the Ginibre draw, from one Generator
        for seed, P in enumerate(np.linspace(0.17, 0.99, 40)):
            g = np.random.default_rng(seed)
            expected = random_density(fixed_purity_spectrum(P, g), g)
            assert np.array_equal(random_density_fixed_purity(P, seed), expected)


class TestRandomDensityFixedPurity:
    @pytest.mark.parametrize("P", [1 / 6 + 1e-6, 0.25, 0.5, 0.9, 0.999])
    def test_exact_purity_full_rank(self, P, rng):
        rho = random_density_fixed_purity(P, rng)
        check_density_matrix(rho)
        assert abs(purity(rho) - P) <= 1e-10
        w, _ = eig_hermitian(rho)
        assert w[0] > 0.0

    def test_deterministic_under_seed(self):
        a = random_density_fixed_purity(0.5, np.random.default_rng(7))
        b = random_density_fixed_purity(0.5, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("P", [1 / 6, 1.0, 0.0])
    def test_domain(self, P, rng):
        with pytest.raises(ValueError, match="purity"):
            random_density_fixed_purity(P, rng)

    def test_negativity_below_degenerate_ceiling(self, rng):
        # Empirical upper-bound check against the fixed-purity ceiling.
        for _ in range(10_000):
            P = rng.uniform(0.21, 0.99)
            rho = random_density_fixed_purity(P, rng)
            assert negativity(rho) <= n_x_p_deg(P) + 1e-6
