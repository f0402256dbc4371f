import numpy as np
import pytest

from qqmems.acs import (
    AcsTrace,
    acs_run,
    acs_sweep,
    pi_objective,
    pi_step,
    rho_step,
    vector_subproblem,
)
from qqmems.linalg import (
    check_density_matrix,
    eig_hermitian,
    negativity,
    partial_transpose_qubit,
    purity,
    random_density_fixed_purity,
)
from qqmems.purity_mems import construct_deg, n_x_p_deg


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


class TestPiStep:
    def test_projector_properties_and_objective(self, rng):
        for P in (0.3, 0.6, 0.9):
            rho = random_density_fixed_purity(P, rng)
            pi = pi_step(rho)
            w, _ = eig_hermitian(pi)
            assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1) < 1e-10))
            assert abs(pi_objective(pi, rho) - negativity(rho)) < 1e-10

    def test_objective_is_maximal_over_random_projectors(self, rng):
        from qqmems.linalg import haar_unitary

        rho = random_density_fixed_purity(0.5, rng)
        best = pi_objective(pi_step(rho), rho)
        for _ in range(200):
            U = haar_unitary(6, rng)
            k = rng.integers(0, 7)
            pi = U[:, :k] @ U[:, :k].conj().T
            assert pi_objective(pi, rho) <= best + 1e-10


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

    def test_rejects_zero_rounds(self, rng):
        with pytest.raises(ValueError, match="max_rounds"):
            acs_run(0.3, random_density_fixed_purity(0.3, rng), max_rounds=0)


class TestAcsSweep:
    def test_deterministic_and_converging(self):
        grid = np.linspace(0.3, 0.9, 5)
        a = acs_sweep(grid, 2, np.random.default_rng(3))
        b = acs_sweep(grid, 2, np.random.default_rng(3))
        assert [s.best_value for s in a] == [s.best_value for s in b]
        assert len(a) == 10
        for s in a:
            assert s.converged
            assert s.deviation <= 1e-8
            assert abs(s.best_value - (s.reference + s.deviation)) < 1e-15

    def test_round_values_are_the_runs_trace(self):
        (s,) = acs_sweep([0.4], 1, np.random.default_rng(5))
        trace = acs_run(s.P, random_density_fixed_purity(s.P, np.random.default_rng(s.seed)))
        assert s.round_values == trace.rounds
        assert len(s.round_values) == s.rounds + 1
