import decimal
import re

import numpy as np
import pytest

import qqmems.acs
from oracles import (
    vector_subproblem_candidates,
    vector_subproblem_exact,
    vector_subproblem_loop,
)
from qqmems.acs import (
    STOP_INCREMENT,
    AcsTrace,
    acs_run,
    pi_objective,
    pi_step,
    rho_step,
    vector_subproblem,
)
from qqmems.linalg import (
    MatrixError,
    check_density_matrix,
    eig_hermitian,
    negativity,
    partial_transpose_qubit,
    purity,
    random_density_fixed_purity,
)
from qqmems.purity_mems import construct_deg, n_x_p_deg

# Pi^Gamma of Pi = I as an eigensolver returns it: constant up to rounding.
NEAR_CONSTANT = [1.0000000000000018, 1.0000000000000007, 1.0000000000000002,
                 0.9999999999999993, 0.9999999999999991, 0.9999999999999981]


class TestVectorSubproblem:
    def test_against_random_sampling_oracle(self, rng):
        for _ in range(20):
            a = rng.standard_normal(6)
            P = rng.uniform(1 / 6 + 0.01, 0.95)
            lam = vector_subproblem(a, P)
            assert abs(lam.sum() - 1.0) < 1e-12
            assert np.min(lam) >= -1e-12
            assert lam @ lam <= P + 1e-12
            best = a @ lam
            for _ in range(2000):
                w = rng.dirichlet(np.ones(6))
                if w @ w <= P:
                    assert a @ w <= best + 1e-9

    def test_linear_regime_puts_everything_on_argmax(self):
        # With the purity cap inactive up to a point; at P near 1 the whole
        # mass sits on the largest coefficient.
        lam = vector_subproblem(np.array([1.0, 5.0, 2.0, 0.0, 0.0, 0.0]), 0.999)
        assert lam[1] > 0.99

    def test_constant_objective_returns_least_pure_point(self):
        lam = vector_subproblem(np.zeros(6), 0.5)
        np.testing.assert_allclose(lam, np.full(6, 1 / 6), atol=1e-15)

    def test_purity_cap_binds(self):
        a = np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
        P = 0.4
        lam = vector_subproblem(a, P)
        assert abs(lam @ lam - P) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError, match="purity bound"):
            vector_subproblem(np.zeros(6), 0.1)

    def test_domain_ends_are_exact(self):
        a = np.arange(6.0)
        for P in (1 / 6, np.nextafter(1.0, 0.0)):
            assert abs(np.sum(vector_subproblem(a, P)) - 1.0) < 1e-12
        for P in (np.nextafter(1 / 6, 0.0), 1.0):
            with pytest.raises(ValueError, match=re.escape(f"purity bound {P} outside [1/6, 1)")):
                vector_subproblem(a, P)

    def test_rounding_on_a_constant_support_gives_no_candidate(self):
        # `a` is constant on {0, 1, 2} up to rounding: the centred vector is
        # -1.1e-16 per entry, and the purity-active scaling (2.6e15) turns it
        # into a point summing to 0.146 that scores above the true maximum.
        a = np.array([-0.7, -0.7, -0.7, 0.0, -0.5, -1.1])
        for solve in (vector_subproblem, lambda a, P: vector_subproblem_loop(a, P)[0]):
            lam = solve(a, 0.5763639592033665)
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert abs(a @ lam - -0.14784151630409) <= 1e-12

    @pytest.mark.parametrize(
        "a,P,match",
        [
            ([np.nan, 0, 0, 0, 0, 0], 0.5, "finite"),
            ([np.inf, 0, 0, 0, 0, 0], 0.5, "finite"),
            ([0, 0, 0, 0, -np.inf, 0], 0.5, "finite"),
            ([1.0, 0, 0, 0, 0], 0.5, "shape"),
            ([1.0, 0, 0, 0, 0, 0, 0], 0.5, "shape"),
            ([[[1.0, 0, 0, 0, 0, 0]]], 0.5, "shape"),
            ([1.0, 0, 0, 0, 0, 0], np.nan, "purity bound"),
            ([1.0, 0, 0, 0, 0, 0], np.inf, "purity bound"),
            ([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]], [0.5, 1.5], "purity bound 1.5"),
            ([[1.0, 0, 0, 0, 0, 0]] * 3, [0.3, 0.4], re.escape("of (3, 6), got shape (2,)")),
        ],
    )
    def test_rejects_bad_input(self, a, P, match):
        with pytest.raises(ValueError, match=match):
            vector_subproblem(np.array(a), P)


def _assert_matches_loop(a, P):
    """The kernel on the stack `a` picks each row's loop-oracle candidate:
    the same support and lambda within 1e-15; stacked rows equal single
    calls."""
    lam = vector_subproblem(a, P)
    for row, p, got in zip(a, np.broadcast_to(P, len(a)), lam):
        ref, _ = vector_subproblem_loop(row, float(p))
        np.testing.assert_array_equal(got > 0, ref > 0)
        assert np.max(np.abs(got - ref)) <= 1e-15
        np.testing.assert_array_equal(vector_subproblem(row, p), got)


class TestVectorSubproblemAgainstLoop:
    def test_random_objectives_and_bounds(self, rng):
        a = rng.standard_normal((200, 6))
        P = rng.uniform(1 / 6, 1.0, 200)
        _assert_matches_loop(a, P)

    @pytest.mark.parametrize(
        "a",
        [
            [0.0] * 6,
            [1.0] * 6,
            [1.0, 1.0, 0.5, 0.5, 0.0, 0.0],
            [2.0, 2.0, 2.0, 1.0, 1.0, 1.0],
            [3.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0, 0.0, 1.0],
            # constant up to rounding, where the 1e-15 tie rule decides
            # between supports
            NEAR_CONSTANT,
        ],
    )
    @pytest.mark.parametrize("P", [1 / 6, 0.2, 0.3328977812499746, 0.5, 0.9, 1 - 1e-12])
    def test_constant_and_repeated_entries(self, a, P):
        _assert_matches_loop(np.array([a]), P)

    @pytest.mark.parametrize("P", [1 / 6, 1 - 1e-12])
    def test_domain_ends(self, rng, P):
        _assert_matches_loop(rng.standard_normal((50, 6)), P)


def _assert_obeys_rule(a, P):
    """The kernel's pick on each row of `a` obeys the documented rule over the
    oracle's candidate list: a value within 1e-15 of the best, and no more
    pure than any candidate within 1e-15 of it.  Every value is summed over
    the row in stable descending order less its maximum, as the kernel sums
    it, and compared by its exact difference from the best: the tolerance is
    a few ulps, so another summation order or a rounded threshold would
    decide ties by itself.  A pad of 4e-16 absorbs the rounding between the
    kernel's and the oracle's candidates."""
    pad = 4e-16
    for row, p, got in zip(a, P, vector_subproblem(a, P)):
        order = np.argsort(-row, kind="stable")
        shifted = row[order] - row[order[0]]
        candidates = vector_subproblem_candidates(row, float(p))
        found = [(np.sum(shifted * lam[order]), pur) for _, pur, lam, _ in candidates]
        best = max(val for val, _ in found)
        least = min(pur for val, pur in found if val - best >= -1e-15 + pad)
        assert np.sum(shifted * got[order]) - best >= -1e-15 - pad
        assert got @ got <= least + pad


class TestSelectionRule:
    # The documented rule is checked here over the oracle's candidate list,
    # apart from the loop oracle's own selection code: on near-constant
    # objectives the 1e-15 window decides between supports.
    def test_near_constant_objectives(self, rng):
        a = 1.0 + rng.integers(-8, 9, (1000, 6)) * 2.0**-52
        a[:500] = -np.sort(-a[:500])  # descending, as rho_step passes them
        P = rng.uniform(1 / 6, 1.0, len(a))
        P[::20], P[1::20] = 1 / 6, 1 - 1e-12
        _assert_obeys_rule(a, P)

    @pytest.mark.parametrize("P", [0.5, 1 - 1e-12])
    def test_pinned_near_ties(self, P):
        # The 1e-15 tolerance is not transitive here: a scan comparing each
        # candidate with its incumbent ends 1.55e-15 below the best at
        # P = 0.5, and at a pure point at P = 1 - 1e-12 although uniform on
        # {0, 1, 2} lies 9e-16 from the best.
        _assert_obeys_rule(np.array([NEAR_CONSTANT]), np.array([P]))


def _near_ties(delta):
    # (t, t - delta) and four entries 0.5 to 1.5 lower, for a random t: with
    # t = 2 exactly, delta = 1e-5 rounds cleanly and shows nothing
    def rows(rng):
        t = rng.uniform(-10.0, 10.0, 200)
        a = np.column_stack([t, t - delta, t[:, None] - rng.uniform(0.5, 1.5, (200, 4))])
        return rng.permuted(a, axis=1), rng.uniform(0.6, 0.999, 200)

    return rows


def _just_above_one_over_k(d):
    # P = 1/k + d, k = 2..6, with k entries in sqrt(d) * [-1, 1] and the rest
    # below -1 (for k = 6, any six entries): KKT puts the optimum on exactly
    # those k, since nu = mean - sqrt(ssq / d) / k > -1.  Skipping the
    # purity-active point of a support whose slack is this small loses
    # sqrt(d * ssq).
    def rows(rng):
        a = rng.uniform(-1.0, 1.0, (100, 6))
        k = np.repeat(np.arange(2, 7), 20)
        top = np.arange(6) < k[:, None]
        a = np.where(top, a * np.where(k < 6, np.sqrt(d), 1.0)[:, None], a - 2.0)
        return rng.permuted(a, axis=1), 1.0 / k + d

    return rows


def _offset(c, t):
    def rows(rng):
        return c * rng.standard_normal((1000, 6)) + t, rng.uniform(1 / 6, 1.0, 1000)

    return rows


def _one_decimal(rng):
    return np.round(rng.uniform(-1.0, 1.0, (500, 6)), 1), rng.uniform(1 / 6, 1.0, 500)


EXACT_ORACLE_ROWS = {
    **{f"near_tie_{delta:g}": _near_ties(delta) for delta in (1e-4, 1e-5, 1e-6, 1e-8)},
    "a_plus_100": _offset(1.0, 100.0),
    "3e-5_a_plus_5": _offset(3e-5, 5.0),
    "one_decimal": _one_decimal,
    **{f"P_1_over_k_plus_{d:g}": _just_above_one_over_k(d) for d in (1e-15, 1e-12, 1e-10)},
}


class TestVectorSubproblemAgainstExactOracle:
    @pytest.mark.parametrize("rows", EXACT_ORACLE_ROWS.values(), ids=EXACT_ORACLE_ROWS.keys())
    def test_loss_is_within_rounding(self, rows, rng):
        # The loss is the exact optimum minus a . lam / sum lam, in 60-digit
        # decimals; dividing by sum lam makes it shift-invariant, as the
        # optimum is.  Bound: 1e-15 is the tie window.  Each value the kernel
        # compares is a six-term sum of weights summing to 1 times entries of
        # a less its maximum, within [-spread, 0], so it rounds by a few ulps
        # of the spread; 16 eps spread covers the two values compared and the
        # rounding of the candidate itself.  That includes 1/k in its slack:
        # for k < 6 the KKT gap to the next entry keeps sqrt(ssq / slack) / k
        # below the spread, and fl(1/6) < 1/6 only adds purity.
        a, P = rows(rng)
        eps = np.finfo(float).eps
        for row, p, lam in zip(a, P, vector_subproblem(a, P)):
            assert abs(lam.sum() - 1.0) <= 1e-12 and lam.min() >= 0.0
            assert lam @ lam <= p + 1e-12
            optimum, _ = vector_subproblem_exact(row, p)
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                got = sum(decimal.Decimal(x) * decimal.Decimal(y) for x, y in zip(row, lam))
                loss = float(optimum - got / sum(decimal.Decimal(y) for y in lam))
            assert loss <= 1e-15 + 16 * eps * np.ptp(row), (row, p)

    def test_rows_just_above_one_over_k_have_support_k(self, rng):
        for d in (1e-15, 1e-12, 1e-10):
            a, P = _just_above_one_over_k(d)(rng)
            for row, p in zip(a, P):
                k = sum(x > 0 for x in vector_subproblem_exact(row, p)[1])
                assert p == 1.0 / k + d


class TestShiftAndScaleInvariance:
    @pytest.mark.parametrize(
        "c,t", [(1.0, 100.0), (1.0, -1000.0), (2.0**-15, 5.0), (2.0**10, -3.0), (3.0, 0.0)]
    )
    def test_lambda_is_unchanged(self, rng, c, t):
        # sum lam = 1 makes lam(c a + t) = lam(a) for c > 0.  The rows are
        # multiples of 2^-30 (standard normal) or of 1/4 (exact ties), so
        # c a + t is exact.  The kernel works on a less its maximum, whose
        # entries an exact shift leaves bit for bit: lam is identical.  A
        # scaling may round those entries differently, by an ulp each, which
        # moves each entry of lam (at most 1) by a few ulps of 1: 8 eps.
        a = np.concatenate([
            np.round(rng.standard_normal((1000, 6)) * 2.0**30) / 2.0**30,
            np.round(rng.uniform(-2.0, 2.0, (200, 6)) * 4.0) / 4.0,
        ])
        P = rng.uniform(1 / 6, 1.0, len(a))
        b = c * a + t
        assert np.array_equal((b - t) / c, a)
        moved = np.abs(vector_subproblem(b, P) - vector_subproblem(a, P))
        assert moved.max() <= (0.0 if c == 1.0 else 8 * np.finfo(float).eps)


class TestPiStep:
    def test_projector_properties_and_objective(self, rng):
        for P in (0.3, 0.6, 0.9):
            rho = random_density_fixed_purity(P, rng)
            pi = pi_step(rho)
            w, _ = eig_hermitian(pi)
            assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1) < 1e-10))
            assert abs(pi_objective(pi, rho) - negativity(rho)) < 1e-10

    def test_objective_is_maximal_over_random_projectors(self, rng):
        from qqmems.linalg import _haar

        rho = random_density_fixed_purity(0.5, rng)
        best = pi_objective(pi_step(rho), rho)
        for _ in range(200):
            U = _haar(rng.standard_normal((2, 6, 6)))
            k = rng.integers(0, 7)
            pi = U[:, :k] @ U[:, :k].conj().T
            assert pi_objective(pi, rho) <= best + 1e-10

    @pytest.mark.parametrize(
        "pi_shape,rho_shape", [((3, 3), (6, 6)), ((2, 6, 6), (3, 6, 6))], ids=["3x3", "stacks"]
    )
    def test_objective_needs_one_projector_per_state(self, pi_shape, rho_shape):
        pi, rho = np.zeros(pi_shape), np.zeros(rho_shape)
        match = f"one projector per state, got shapes {pi_shape} and {rho_shape}"
        with pytest.raises(ValueError, match=re.escape(match)):
            pi_objective(pi, rho)


class TestRhoStep:
    def test_output_is_valid_and_purity_bounded(self, rng):
        rho = random_density_fixed_purity(0.5, rng)
        pi = pi_step(rho)
        out = rho_step(pi, 0.5)
        check_density_matrix(out)
        assert purity(out) <= 0.5 + 1e-12

    def test_optimal_against_random_states(self, rng):
        pi = pi_step(random_density_fixed_purity(0.4, rng))
        best = float(np.real(np.trace(pi @ partial_transpose_qubit(rho_step(pi, 0.4)))))
        for _ in range(300):
            cand = random_density_fixed_purity(rng.uniform(0.17, 0.4), rng)
            val = float(np.real(np.trace(pi @ partial_transpose_qubit(cand))))
            assert val <= best + 1e-9

    def test_domain(self):
        with pytest.raises(ValueError, match="purity"):
            rho_step(np.eye(6), 0.15)


class TestAcsRun:
    def test_monotone_rounds(self, rng):
        for P in (0.22, 0.35, 0.6, 0.9):
            trace = acs_run(P, random_density_fixed_purity(P, rng))
            diffs = np.diff(trace.rounds)
            assert np.all(diffs >= -1e-12)
            assert trace.converged
            assert isinstance(trace, AcsTrace)

    @pytest.mark.parametrize("P", [0.25, 0.5, 0.75])
    def test_fixed_point_at_constructed_optimum(self, P):
        trace = acs_run(P, construct_deg(P).to_matrix())
        assert abs(trace.rounds[1] - trace.rounds[0]) <= 1e-10
        assert abs(trace.best_value - n_x_p_deg(P)) < 1e-10

    def test_rejects_too_pure_start(self, rng):
        with pytest.raises(ValueError, match="exceeds bound"):
            acs_run(0.3, random_density_fixed_purity(0.6, rng))

    @pytest.mark.parametrize(
        "rho0,match",
        [
            (np.zeros((6, 6)), "trace is 0"),
            (np.diag([0.5, 0.5, 0.25, 0.0, 0.0, -0.25]), "smallest eigenvalue"),
            (np.triu(np.ones((6, 6))) / 6, "not Hermitian"),
            (np.full((6, 6), np.nan), "non-finite entry"),
            (np.stack([np.eye(6) / 6] * 2), re.escape("got shape (2, 6, 6)")),
            (np.eye(4) / 4, re.escape("got shape (4, 4)")),
        ],
    )
    def test_rejects_a_start_that_is_not_a_state(self, rho0, match):
        with pytest.raises(ValueError, match=match):
            acs_run(0.5, rho0)

    @pytest.mark.parametrize("max_rounds", [0, -2])
    def test_rejects_zero_rounds(self, rng, max_rounds):
        with pytest.raises(ValueError, match=f"max_rounds must be >= 1, got {max_rounds}$"):
            acs_run(0.3, random_density_fixed_purity(0.3, rng), max_rounds=max_rounds)

    @pytest.mark.parametrize("max_rounds", [10.0, 2.5, "10", None, True])
    def test_rejects_non_integral_rounds(self, rng, max_rounds):
        match = re.escape(f"max_rounds must be an integer, got {max_rounds!r}")
        with pytest.raises(ValueError, match=match):
            acs_run(0.3, random_density_fixed_purity(0.3, rng), max_rounds=max_rounds)

    def test_ppt_start_escapes_the_identity_projector(self):
        # a PPT start: Pi = I, whose rho-step alone returns I/6 at value 0
        rho0 = random_density_fixed_purity(0.3, np.random.default_rng(7))
        assert abs(negativity(rho0)) < 1e-12
        trace = acs_run(0.3, rho0)
        assert abs(trace.rounds[0]) < STOP_INCREMENT
        assert trace.status == "converged" and trace.converged
        assert abs(trace.best_value - n_x_p_deg(0.3)) < 1e-8
        assert np.all(np.diff(trace.rounds) >= -1e-12)

    def test_diagonal_start_is_reported_stalled(self):
        # A product-basis diagonal start: rho^Gamma = rho and the escape
        # vector is a product state, so the next state is PPT again.
        lam = np.array([0.3, 0.25, 0.2, 0.1, 0.1, 0.05])
        trace = acs_run(float(lam @ lam), np.diag(lam).astype(complex))
        assert trace.status == "stalled_ppt" and not trace.converged
        assert max(abs(v) for v in trace.rounds) < STOP_INCREMENT

    def test_round_cap_is_reported(self):
        rho0 = random_density_fixed_purity(0.6, np.random.default_rng(1))
        trace = acs_run(0.6, rho0, max_rounds=1)
        assert trace.rounds[1] - trace.rounds[0] >= STOP_INCREMENT
        assert trace.status == "max_rounds" and not trace.converged
        assert trace.rounds_used == 1


def _count_eighs(monkeypatch):
    """Record the shape of each eigendecomposition the ACS module makes."""
    calls = []

    def counting(H):
        calls.append(np.shape(H))
        return eig_hermitian(H)

    monkeypatch.setattr(qqmems.acs, "eig_hermitian", counting)
    return calls


class TestOneEighPerHalfStep:
    def test_ppt_start(self, monkeypatch):
        # I/6 is PPT: its first rho-step takes the escape, which must come
        # from the initial Pi-step's eigendecomposition, not a second one
        calls = _count_eighs(monkeypatch)
        trace = acs_run(0.3, np.eye(6) / 6)
        assert abs(trace.rounds[0]) < STOP_INCREMENT
        assert len(calls) == 1 + 2 * trace.rounds_used

    def test_stack(self, monkeypatch):
        P = np.repeat(np.linspace(0.21, 0.9, 10), 3)
        rho0 = _acs_starts(P, 5)
        calls = _count_eighs(monkeypatch)
        runs = acs_run(P, rho0)
        assert any(abs(s.rounds[0]) < STOP_INCREMENT for s in runs)
        assert len(calls) == 1 + 2 * max(s.rounds_used for s in runs)
        assert calls[0] == (len(P), 6, 6)

    def test_stack_past_the_cli_block_is_one_lockstep(self, monkeypatch):
        # 36 runs, more than the `acs` command hands over at once: still one
        # stack, whose first eigendecomposition takes every start
        P = np.repeat(np.linspace(0.21, 0.9, 12), 3)
        rho0 = _acs_starts(P, 5)
        calls = _count_eighs(monkeypatch)
        runs = acs_run(P, rho0)
        assert len(runs) == 36
        assert len(calls) == 1 + 2 * max(s.rounds_used for s in runs)
        assert calls[0] == (36, 6, 6)


def _acs_starts(P, seed):
    """Starts for the bounds P drawn as the `acs` command draws them: one
    seed per bound from the Generator `seed`."""
    rng = np.random.default_rng(seed)
    return random_density_fixed_purity(P, [int(rng.integers(0, 2**31 - 1)) for _ in P])


class TestStackedAcsRun:
    def test_deterministic_and_converging(self):
        P = np.repeat(np.linspace(0.3, 0.9, 5), 2)
        a = acs_run(P, _acs_starts(P, 3))
        b = acs_run(P, _acs_starts(P, 3))
        assert [s.best_value for s in a] == [s.best_value for s in b]
        assert len(a) == 10
        for s in a:
            assert s.converged
            assert s.best_value - n_x_p_deg(s.P) <= 1e-8

    def test_stack_equals_the_single_calls(self):
        # 12 purities x 3 starts, more than the `acs` command hands over at
        # once; the low purities give PPT starts, which take the escape step
        P = np.repeat(np.linspace(0.21, 0.9, 12), 3)
        rho0 = _acs_starts(P, 5)
        runs = acs_run(P, rho0)
        assert len(runs) == 36
        assert any(abs(s.rounds[0]) < STOP_INCREMENT for s in runs)
        for s, p, start in zip(runs, P, rho0):
            trace = acs_run(p, start)
            assert isinstance(s, AcsTrace) and isinstance(trace, AcsTrace)
            assert s.P == trace.P == p
            assert s.rounds == trace.rounds
            assert s.rounds_used == trace.rounds_used == len(s.rounds) - 1
            assert s.status == trace.status
            assert np.array_equal(s.final_state, trace.final_state)

    @pytest.mark.parametrize(
        "P,shape,match",
        [
            ([0.4, np.nan], (2, 6, 6), "purity nan outside ACS domain"),
            ([np.inf], (1, 6, 6), "purity inf outside ACS domain"),
            ([0.4, 0.1], (2, 6, 6), "purity 0.1 outside ACS domain"),
            ([1.0], (1, 6, 6), "purity 1.0 outside ACS domain"),
            ([0.4, 0.5], (3, 6, 6), "starts of shape (2, 6, 6) for purities of shape (2,)"),
            ([0.4], (6, 6), "starts of shape (1, 6, 6) for purities of shape (1,)"),
            (0.4, (1, 6, 6), "starts of shape (6, 6) for purities of shape ()"),
            ([[0.4]], (1, 1, 6, 6), "a float or a 1-D array"),
        ],
    )
    def test_rejects_bad_input_before_any_run(self, monkeypatch, P, shape, match):
        monkeypatch.setattr(qqmems.acs, "_acs_lockstep", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=re.escape(match)):
            acs_run(P, np.broadcast_to(np.eye(6) / 6, shape))

    @pytest.mark.parametrize(
        "bad,match",
        [
            (np.eye(6) / 5, "trace is 1.2"),
            (random_density_fixed_purity(0.6, 1), "exceeds bound 0.3"),
        ],
    )
    def test_names_the_first_bad_start(self, monkeypatch, bad, match):
        monkeypatch.setattr(qqmems.acs, "_acs_lockstep", lambda *args: pytest.fail("a run started"))
        rho0 = np.stack([np.eye(6) / 6] * 4).astype(complex)
        rho0[2] = rho0[3] = bad
        with pytest.raises(MatrixError, match=re.escape(match)) as err:
            acs_run(np.full(4, 0.3), rho0)
        assert err.value.index == (2,)


def test_empty_stacks_give_empty_results():
    empty = np.zeros((0, 6, 6))
    assert vector_subproblem(np.zeros((0, 6)), np.array([])).shape == (0, 6)
    assert rho_step(empty, np.array([])).shape == (0, 6, 6)
    assert pi_step(empty).shape == (0, 6, 6)
    assert pi_objective(empty, empty).shape == (0,)
    assert acs_run(np.array([]), empty) == []
