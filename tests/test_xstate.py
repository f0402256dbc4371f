import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqmems.linalg import (
    HERMITICITY_TOL,
    MatrixError,
    check_density_matrix,
    eig_hermitian,
    negativity,
    partial_transpose_qubit,
)
from qqmems.purity_mems import construct_deg
from qqmems.xstate import (
    XState,
    XStateError,
    from_matrix,
    x_negativity,
    x_spectra,
)

from oracles import count_negative_pt_eigs, negativity_neg_eigs, random_xstates, sum_edges

SUM_IN, SUM_PAST = sum_edges(1e-12)
BELOW = np.nextafter(-1e-12, -1)  # one float past -PSD_SLACK
BOUND = np.sqrt(0.2 * 0.2) + 1e-12  # block 1's r at its positivity bound plus PSD_SLACK


def xstate_strategy():
    """Valid X states: simplex diagonal, anti-diagonal a fraction of the
    positivity bound."""
    unit = st.floats(0.0, 1.0, allow_nan=False)
    return st.tuples(
        st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
        st.lists(unit, min_size=3, max_size=3),
        st.lists(st.floats(0.0, 2.0 * np.pi), min_size=3, max_size=3),
    ).map(_build_xstate)


def _build_xstate(args):
    weights, fracs, phis = args
    w = np.array(weights)
    w /= w.sum()
    a, b = w[:3], w[3:]
    r = np.array(fracs) * np.sqrt(a * b)
    return XState(a=a, b=b, r=r, phi=np.array(phis))


class TestValidation:
    def test_rejects_negative_diagonal(self):
        with pytest.raises(XStateError, match="nonnegative"):
            XState(a=[-0.1, 0.3, 0.3], b=[0.2, 0.2, 0.1], r=[0, 0, 0])

    def test_rejects_bad_normalization(self):
        with pytest.raises(XStateError, match="normalization"):
            XState(a=[0.2, 0.2, 0.2], b=[0.2, 0.2, 0.2], r=[0, 0, 0])

    def test_rejects_block_positivity_violation(self):
        with pytest.raises(XStateError, match="block 2"):
            XState(a=[0.1, 0.2, 0.2], b=[0.1, 0.2, 0.2], r=[0, 0.21, 0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(XStateError, match="shape"):
            XState(a=[0.5, 0.5], b=[0, 0, 0], r=[0, 0, 0])

    def test_boundary_r_is_valid(self):
        a = np.array([0.2, 0.1, 0.2])
        b = np.array([0.2, 0.1, 0.2])
        XState(a=a, b=b, r=np.sqrt(a * b))

    @pytest.mark.parametrize(
        "a,b,r",
        [
            ([0.5, 0.5 + 1e-12, -1e-12], [0, 0, 0], [0, 0, 0]),  # a_3 at -PSD_SLACK
            ([0.5 + 1e-12, 0.5, 0], [0, 0, -1e-12], [0, 0, 0]),  # b_3 at -PSD_SLACK
            ([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0, -1e-12, 0]),  # r_2 at -PSD_SLACK
            ([0.5 + SUM_IN, 0.5, 0], [0, 0, 0], [0, 0, 0]),  # the largest sum within TRACE_TOL
            ([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [BOUND, 0, 0]),  # r at sqrt(a b) + PSD_SLACK
        ],
    )
    def test_accepts_each_tolerance_edge(self, a, b, r):
        XState(a=a, b=b, r=r)


class TestStackedStates:
    @staticmethod
    def _stack(rng, n):
        states = [random_xstates(rng) for _ in range(n)]
        # A product state: its PT minus eigenvalues are exactly 0, and its
        # negativity must come out +0.0, not -0.0.
        states.append(XState(a=[0.5, 0, 0], b=[0, 0, 0.5], r=[0, 0, 0]))
        fields = (np.array([getattr(x, f) for x in states]) for f in ("a", "b", "r", "phi"))
        return states, XState(*fields)

    def test_matrices_equal_per_state_matrices(self, rng):
        states, stack = self._stack(rng, 30)
        matrices = stack.to_matrix()
        assert matrices.shape == (31, 6, 6)
        for m, x in enumerate(states):
            assert np.array_equal(matrices[m], x.to_matrix())

    def test_closed_forms_are_per_state_and_bitwise(self, rng):
        states, stack = self._stack(rng, 2000)
        for fn in (
            x_negativity,
            lambda x: x_spectra(x)[0],
            lambda x: x_spectra(x)[1],
        ):
            values = fn(stack)
            singles = np.array([fn(x) for x in states])
            assert values.shape == singles.shape and values.shape[0] == len(states)
            assert values.tobytes() == singles.tobytes()
        assert 0 < count_negative_pt_eigs(stack).sum() < len(states)
        assert not np.signbit(x_negativity(stack)).any()  # never -0.0
        assert isinstance(x_negativity(states[0]), float)

    def test_a_stack_has_no_single_record(self, rng):
        _, stack = self._stack(rng, 2)
        with pytest.raises(XStateError, match=r"stack of shape \(3, 3\)"):
            stack.to_dict()

    @pytest.mark.parametrize("name", ["b", "r", "phi"])
    def test_rejects_fields_of_mismatched_shapes(self, name):
        fields = {f: np.full((2, 3), 1 / 6) for f in ("a", "b")}
        fields.update(r=np.zeros((2, 3)), phi=np.zeros((2, 3)))
        fields[name] = fields[name][0]
        with pytest.raises(XStateError, match=rf"{name} has shape \(3,\)"):
            XState(**fields)

    @pytest.mark.parametrize(
        "row,msg",
        [
            (([-0.1, 0.3, 0.3], [0.2, 0.2, 0.1], [0, 0, 0]), "nonnegative"),
            (([0.2, 0.2, 0.2], [0.2, 0.2, 0.2], [0, 0, 0]), "normalization"),
            (([0.1, 0.2, 0.2], [0.1, 0.2, 0.2], [0, 0.21, 0]), "block 2: r = 0.21"),
            # one float past each tolerance edge
            (([0.5, 0.5 + 1e-12, BELOW], [0, 0, 0], [0, 0, 0]), "nonnegative"),
            (([0.5 + 1e-12, 0.5, 0], [0, 0, BELOW], [0, 0, 0]), "nonnegative"),
            (([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0, BELOW, 0]), "nonnegative"),
            (([0.5 + SUM_PAST, 0.5, 0], [0, 0, 0], [0, 0, 0]), "normalization"),
            (([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [np.nextafter(BOUND, 1), 0, 0]), "block 1"),
        ],
    )
    def test_validator_rejects_what_xstate_rejects(self, row, msg):
        # A stack fails on its first bad state with that state's own message.
        good = ([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0.0, 0.0, 0.0])
        a, b, r = (np.array([g, bad, g]) for g, bad in zip(good, row))
        with pytest.raises(XStateError, match=msg) as stacked:
            XState(a, b, r)
        with pytest.raises(XStateError, match=msg) as single:
            XState(*row)
        assert str(stacked.value) == str(single.value)


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(xstate_strategy())
    def test_matrix_round_trip(self, x):
        y = from_matrix(x.to_matrix())
        np.testing.assert_allclose(y.a, x.a, atol=1e-14)
        np.testing.assert_allclose(y.b, x.b, atol=1e-14)
        np.testing.assert_allclose(y.r, x.r, atol=1e-14)
        np.testing.assert_allclose(y.to_matrix(), x.to_matrix(), atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(xstate_strategy())
    def test_dict_round_trip(self, x):
        y = XState.from_dict(x.to_dict())
        np.testing.assert_allclose(y.to_matrix(), x.to_matrix(), atol=1e-15)

    def test_from_matrix_reports_off_pattern_entries(self):
        m = np.eye(6, dtype=complex) / 6
        m[0, 2] = m[2, 0] = 0.01
        with pytest.raises(XStateError, match=r"\(0, 2\)"):
            from_matrix(m)

    def test_from_matrix_tolerates_off_pattern_entries_up_to_1e_12(self):
        m = np.eye(6, dtype=complex) / 6
        m[0, 2] = m[2, 0] = 1e-12
        from_matrix(m)
        m[0, 2] = m[2, 0] = np.nextafter(1e-12, 1)
        with pytest.raises(XStateError, match=r"\(0, 2\)"):
            from_matrix(m)

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(XStateError, match="6x6"):
            from_matrix(np.eye(4))
        with pytest.raises(XStateError, match="6x6"):
            from_matrix(np.ones((6, 5)))

    def test_from_matrix_rejects_non_hermitian_matrix(self):
        # the same MatrixError as check_density_matrix and negativity, where a
        # non-Hermitian input used to read a coherence or drop a diagonal part
        one_sided = construct_deg(0.5).to_matrix()
        one_sided[3, 2] = 0
        imaginary = construct_deg(0.5).to_matrix()
        imaginary[2, 2] += 0.3j
        for m, dev in ((one_sided, "3.333e-01"), (imaginary, "6.000e-01")):
            msg = f"matrix is not Hermitian: max |H - H^dag| = {dev}"
            for check in (from_matrix, check_density_matrix, negativity):
                with pytest.raises(MatrixError, match=re.escape(msg)):
                    check(m)

    def test_from_matrix_tolerates_asymmetry_up_to_hermiticity_tol(self):
        # an imaginary diagonal part b gives max |H - H^dag| = 2b exactly
        rho = construct_deg(0.5).to_matrix()
        m = rho.copy()
        m[2, 2] += 0.5j * HERMITICITY_TOL
        np.testing.assert_allclose(from_matrix(m).to_matrix(), rho, atol=1e-15)
        m[2, 2] = rho[2, 2] + 1j * np.nextafter(0.5 * HERMITICITY_TOL, 1)
        with pytest.raises(MatrixError, match="not Hermitian"):
            from_matrix(m)

    def test_to_matrix_is_valid_density_matrix(self, rng):
        check_density_matrix(random_xstates(rng, 100).to_matrix())


class TestSpectra:
    @settings(max_examples=80, deadline=None)
    @given(xstate_strategy())
    def test_closed_form_eigenvalues(self, x):
        state_values, pt_values = x_spectra(x)
        w, _ = eig_hermitian(x.to_matrix())
        np.testing.assert_allclose(np.sort(state_values), w, atol=1e-12)
        wpt, _ = eig_hermitian(partial_transpose_qubit(x.to_matrix()))
        np.testing.assert_allclose(np.sort(pt_values), wpt, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(xstate_strategy())
    def test_negativity_matches_trace_norm(self, x):
        assert abs(x_negativity(x) - negativity(x.to_matrix())) < 1e-10
        assert abs(x_negativity(x) - negativity_neg_eigs(x.to_matrix())) < 1e-10

    def test_phase_invariance(self, rng):
        # Neither spectrum depends on the anti-diagonal phases.
        for _ in range(50):
            x = random_xstates(rng)
            y = XState(a=x.a, b=x.b, r=x.r, phi=rng.uniform(0, 2 * np.pi, 3))
            assert x_negativity(x) == pytest.approx(x_negativity(y), abs=1e-15)
            np.testing.assert_allclose(
                x_spectra(x)[0], x_spectra(y)[0], atol=1e-15
            )
            assert abs(negativity(y.to_matrix()) - x_negativity(x)) < 1e-10

    def test_at_most_one_negative_pt_eigenvalue(self, rng):
        counts = np.bincount(count_negative_pt_eigs(random_xstates(rng, 2000)))
        assert len(counts) == 2 and counts.min() > 0  # both outcomes occur, no other

    @pytest.mark.parametrize("fn", [x_spectra, x_negativity])
    def test_closed_forms_reject_other_input_by_type(self, fn):
        with pytest.raises(TypeError, match="expected an XState, got ndarray"):
            fn(np.eye(6) / 6)

    def test_separable_x_state_has_zero_negativity(self):
        x = XState(a=[1 / 6] * 3, b=[1 / 6] * 3, r=[0, 0, 0])
        assert x_negativity(x) == 0.0
        assert count_negative_pt_eigs(x) == 0

