import re

import numpy as np
import pytest

from qqmems.linalg import eig_hermitian, negativity, random_spectrum
from qqmems.spectrum import (
    OPTIMAL_SEQUENCE,
    all_sequences,
    best_sequence_bruteforce,
    construct_spectrum_xmems,
    n_x_lambda,
    s_value,
    validate_spectrum,
)

from oracles import sum_edges

SUM_IN, SUM_PAST = sum_edges(1e-12)
BELOW = np.nextafter(-1e-12, -1)  # one float past -PSD_SLACK


class TestValidateSpectrum:
    def test_accepts_descending_simplex(self):
        validate_spectrum([0.4, 0.3, 0.2, 0.1, 0.0, 0.0])

    @pytest.mark.parametrize(
        "lam",
        [
            [0.5, 0.5, 1e-12, 0, 0, -1e-12],  # an entry at -PSD_SLACK
            [0.5, 0.5 - 1e-12, 0, 1e-12, 0, 0],  # a rise of PSD_SLACK
            [0.5 + SUM_IN, 0.5, 0, 0, 0, 0],  # the largest sum within TRACE_TOL
        ],
    )
    def test_accepts_each_tolerance_edge(self, lam):
        validate_spectrum(lam)

    @pytest.mark.parametrize(
        "lam,msg",
        [
            ([0.3, 0.4, 0.2, 0.1, 0, 0], "descending"),
            ([0.5, 0.4, 0.2, -0.1, 0, 0], "nonnegative"),
            ([0.4, 0.3, 0.2, 0.0, 0, 0], "sums"),
            ([0.5, 0.5], "shape"),
            # one float past each tolerance edge
            ([0.5, 0.5, 1e-12, 0, 0, BELOW], "nonnegative"),
            ([0.5, 0.5 - 1e-12, 0, np.nextafter(1e-12, 1), 0, 0], "descending"),
            ([0.5 + SUM_PAST, 0.5, 0, 0, 0, 0], "sums"),
        ],
    )
    def test_rejections(self, lam, msg):
        with pytest.raises(ValueError, match=msg):
            validate_spectrum(lam)


class TestSValue:
    def test_explicit_value(self):
        lam = np.array([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        expected = -(lam[3] + lam[5]) + np.hypot(lam[3] - lam[5], lam[0] - lam[4])
        assert s_value(lam, (4, 6, 1, 5)) == pytest.approx(expected, abs=1e-15)

    def test_rejects_repeated_indices(self):
        with pytest.raises(ValueError, match="distinct"):
            s_value(np.array([1.0, 0, 0, 0, 0, 0]), (1, 2, 1, 3))

    @pytest.mark.parametrize(
        "seq",
        [(0, 1, 2, 3), (6, 1, 2, 3, 4), (7, 1, 2, 3), (-1, 1, 2, 3), (4.0, 6, 1, 5), ("4", 6, 1, 5),
         (4, 6, 1), (True, 2, 3, 4)],
    )
    def test_rejects_indices_outside_one_to_six(self, seq):
        # index 0 would wrap round to lam_6: (0, 1, 2, 3) would equal (6, 1, 2, 3)
        with pytest.raises(ValueError, match=re.escape(f"sequence {seq} must be four integer")):
            s_value(np.full(6, 1.0 / 6.0), seq)

    def test_accepts_numpy_integer_indices(self):
        lam = np.array([0.4, 0.25, 0.15, 0.1, 0.06, 0.04])
        assert s_value(lam, np.array(OPTIMAL_SEQUENCE)) == s_value(lam, OPTIMAL_SEQUENCE)

    def test_sequence_count_and_disjointness(self):
        seqs = all_sequences()
        assert len(seqs) == 90
        assert len(set(seqs)) == 90
        assert all(len({i, j, k, el}) == 4 for i, j, k, el in seqs)


class TestOptimalAssignment:
    def test_bruteforce_matches_closed_form(self, rng):
        for _ in range(500):
            lam = random_spectrum(rng)
            _, best = best_sequence_bruteforce(lam)
            assert abs(best - s_value(lam, OPTIMAL_SEQUENCE)) < 1e-12
            assert abs(best - n_x_lambda(lam)) < 1e-12

    def test_uniform_spectrum_tie(self):
        # All 90 sequences give -1/3; the lexicographically smallest wins.
        lam = np.full(6, 1.0 / 6.0)
        seq, val = best_sequence_bruteforce(lam)
        assert val == pytest.approx(-1.0 / 3.0, abs=1e-15)
        assert seq == (1, 2, 3, 4)

    def test_n_x_lambda_can_be_negative(self):
        assert n_x_lambda(np.full(6, 1.0 / 6.0)) == pytest.approx(-1.0 / 3.0)


class TestConstruction:
    def test_spectrum_and_negativity(self, rng):
        for _ in range(200):
            lam = random_spectrum(rng)
            x = construct_spectrum_xmems(lam)
            w, _ = eig_hermitian(x.to_matrix())
            np.testing.assert_allclose(np.sort(w)[::-1], lam, atol=1e-12)
            target = max(0.0, n_x_lambda(lam))
            assert abs(negativity(x.to_matrix()) - target) < 1e-10

    def test_pure_spectrum_gives_maximal_entanglement(self):
        x = construct_spectrum_xmems(np.array([1.0, 0, 0, 0, 0, 0]))
        assert abs(negativity(x.to_matrix()) - 1.0) < 1e-12

    def test_uniform_spectrum_gives_separable_state(self):
        x = construct_spectrum_xmems(np.full(6, 1.0 / 6.0))
        assert negativity(x.to_matrix()) == pytest.approx(0.0, abs=1e-12)

    def test_stack_gives_the_single_states_matrices(self, rng):
        lams = random_spectrum(rng, count=25)
        stack = construct_spectrum_xmems(lams).to_matrix()
        assert stack.shape == (25, 6, 6)
        for m, lam in enumerate(lams):
            assert np.array_equal(stack[m], construct_spectrum_xmems(lam).to_matrix())
        values = s_value(lams, OPTIMAL_SEQUENCE)
        assert np.array_equal(values, [s_value(lam, OPTIMAL_SEQUENCE) for lam in lams])

    def test_stack_validation_names_the_offending_row(self, rng):
        lams = random_spectrum(rng, count=4)
        lams[2] *= 1.5
        with pytest.raises(ValueError, match=f"sums to {lams[2].sum()}"):
            construct_spectrum_xmems(lams)

