import dataclasses

import numpy as np
import pytest

import qqmems.tgx
from qqmems import purity_mems
from qqmems.linalg import check_density_matrix, eig_hermitian, negativity, purity
from qqmems.purity_mems import FAMILIES, DomainError, n_x_p_rank2, n_x_p_rank3
from qqmems.tgx import (
    P_MAX,
    TgxParams,
    maximize_tgx2,
    maximize_tgx3,
    _tgx3_consts,
    _tgx3_weights,
    tgx_matrix,
    tgx_negativity,
)
from qqmems.xstate import XState

from oracles import sum_edges


def random_tgx2(rng):
    p1 = rng.uniform(0.05, 0.95)
    return TgxParams(tuple(rng.uniform(0, np.pi, 2)), (p1, 1.0 - p1))


def random_tgx3(rng):
    p = rng.dirichlet(np.ones(3))
    th = rng.uniform(0, np.pi, 3)
    return TgxParams(th, p)


class TestParams:
    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError, match="positive"):
            TgxParams((0.0, 0.0), (0.0, 1.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="expected 1"):
            TgxParams((0, 0, 0), (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("p", [(0.5, 0.5), (0.5, 0.25, 0.25)])
    def test_sum_tolerance_edges(self, p, sign):
        # the largest sum within TRACE_TOL of 1, on either side, and one float past it
        inside, past = sum_edges(1e-12)
        theta = (0.0,) * len(p)
        TgxParams(theta, (p[0] + sign * inside,) + p[1:])
        with pytest.raises(ValueError, match="expected 1"):
            TgxParams(theta, (p[0] + sign * past,) + p[1:])

    @pytest.mark.parametrize(
        "theta, p",
        [((0.1,), (1.0,)), ((0.1,) * 4, (0.25,) * 4), ((0.1, 0.2), (0.2, 0.3, 0.5)), (0.1, 1.0)],
    )
    def test_rejects_other_lengths(self, theta, p):
        with pytest.raises(ValueError, match="theta and p need one length, 2 or 3"):
            TgxParams(theta, p)

    def test_fields_are_tuples_of_floats(self):
        q = TgxParams(np.array([0.3, 1]), [np.float64(0.25), 0.75])
        assert q == TgxParams((0.3, 1.0), (0.25, 0.75))
        assert all(type(v) is float for v in q.theta + q.p)


class TestMatrices:
    def test_density_matrix_and_purity_identity(self, rng):
        for _ in range(200):
            q2 = random_tgx2(rng)
            rho2 = tgx_matrix(q2)
            check_density_matrix(rho2)
            assert abs(purity(rho2) - sum(np.square(q2.p))) < 1e-12
            q3 = random_tgx3(rng)
            rho3 = tgx_matrix(q3)
            check_density_matrix(rho3)
            assert abs(purity(rho3) - sum(np.square(q3.p))) < 1e-12

    def test_rank_counts_nonzero_probabilities(self, rng):
        w2, _ = eig_hermitian(tgx_matrix(random_tgx2(rng)))
        assert np.sum(w2 > 1e-12) == 2
        w3, _ = eig_hermitian(tgx_matrix(random_tgx3(rng)))
        assert np.sum(w3 > 1e-12) == 3

    def test_zero_angles_give_diagonal_separable(self):
        rho = tgx_matrix(TgxParams((0, 0, 0), (0.5, 0.3, 0.2)))
        assert np.max(np.abs(rho - np.diag(rho.diagonal()))) == 0.0
        assert negativity(rho) == pytest.approx(0.0, abs=1e-14)

    def test_bell_limit(self):
        q = TgxParams((np.pi / 4, 0.0), (1.0 - 1e-12, 1e-12))
        assert abs(negativity(tgx_matrix(q)) - 1.0) < 1e-9
        assert abs(tgx_negativity(q) - 1.0) < 1e-9


class TestFormulas:
    def test_tgx2_matches_trace_norm_oracle(self, rng):
        for _ in range(10_000):
            q = random_tgx2(rng)
            assert abs(tgx_negativity(q) - negativity(tgx_matrix(q))) < 1e-10

    def test_tgx3_matches_trace_norm_oracle(self, rng):
        for _ in range(10_000):
            q = random_tgx3(rng)
            assert abs(tgx_negativity(q) - negativity(tgx_matrix(q))) < 1e-10


@pytest.mark.parametrize("fn", [tgx_matrix, tgx_negativity])
@pytest.mark.parametrize(
    "q, name",
    [
        (XState([0.2, 0.1, 0.2], [0.2, 0.1, 0.2], [0.0, 0.0, 0.0]), "XState"),
        ((0.1, 0.2, 0.5, 0.5), "tuple"),
    ],
)
def test_rejects_other_input_by_type(fn, q, name):
    with pytest.raises(TypeError, match=f"expected a TgxParams, got {name}$"):
        fn(q)


@pytest.mark.parametrize("maximize", [maximize_tgx2, maximize_tgx3])
@pytest.mark.parametrize("restarts", [0, -3])
def test_rejects_nonpositive_restarts(maximize, restarts):
    with pytest.raises(ValueError, match="restarts"):
        maximize(0.6, restarts=restarts, rng=0)


@pytest.mark.parametrize("maximize", [maximize_tgx2, maximize_tgx3])
@pytest.mark.parametrize("restarts", [2.5, 3.0, "4", None, True])
def test_rejects_nonintegral_restarts(maximize, restarts):
    with pytest.raises(DomainError, match="restarts must be an integer"):
        maximize(0.6, restarts=restarts, rng=0)
    with pytest.raises(DomainError, match="restarts must be an integer"):
        maximize(np.array([0.6, 0.7]), restarts=restarts, rng=[1, 2])


EDGES = {
    "rank2": [0.5, np.nextafter(0.5, 1), 0.62, 0.9, P_MAX],
    "rank3": [1 / 3, np.nextafter(1 / 3, 1), 0.41, 0.5, np.nextafter(0.5, 1), 0.77, P_MAX],
}


@pytest.mark.parametrize("family, maximize", [("rank2", maximize_tgx2), ("rank3", maximize_tgx3)])
class TestArrayForm:
    def test_batch_matches_scalar_calls(self, family, maximize):
        purities = np.array(EDGES[family])
        seeds = 20 + np.arange(len(purities))
        # Generators and plain seeds mix; a seed stands for its Generator.
        batch = maximize(purities, rng=[np.random.default_rng(s) for s in seeds[:-1]] + [seeds[-1]])
        assert len(batch) == len(purities)
        for P, seed, res in zip(purities, seeds, batch):
            single = maximize(float(P), rng=seed)
            for field in ("P", "best_params", "best_value", "nfev", "restarts_converged", "converged"):
                assert getattr(res, field) == getattr(single, field), (P, field)
            assert res == single

    def test_empty_grid(self, family, maximize):
        assert maximize(np.array([]), rng=[]) == []

    @pytest.mark.parametrize(
        "purities, rng, error, match",
        [
            ([0.6, np.nan], [1, 2], DomainError, "purity nan outside"),
            ([0.6, np.inf], [1, 2], DomainError, "purity inf outside"),
            ([0.6, 0.2], [1, 2], DomainError, "purity 0.2 outside"),
            ([0.6, 0.7], [1, 2, 3], ValueError, "3 rngs for 2 purities"),
            ([0.6, 0.7], [1], ValueError, "1 rngs for 2 purities"),
            ([0.6, 0.7], 5, ValueError, "sequence of one seed or Generator per purity"),
            ([[0.6, 0.7]], [1], ValueError, "1-D"),
        ],
    )
    def test_rejects_bad_input_before_any_run(
        self, family, maximize, purities, rng, error, match, monkeypatch
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a search ran before the input was checked")

        monkeypatch.setattr(qqmems.tgx, "nelder_mead", no_run)
        with pytest.raises(error, match=match):
            maximize(np.array(purities), rng=rng)


class TestMaximizeTgx2:
    def test_domain(self):
        with pytest.raises(ValueError, match="domain"):
            maximize_tgx2(0.49)

    def test_deterministic_under_seed(self):
        a = maximize_tgx2(0.6, rng=11)
        b = maximize_tgx2(0.6, rng=11)
        assert a.best_value == b.best_value
        assert a.best_params == b.best_params

    def test_reaches_x_ceiling_everywhere(self):
        for P in np.linspace(0.5, 0.99, 8):
            res = maximize_tgx2(P, rng=0)
            assert res.best_value >= n_x_p_rank2(P) - 1e-10
            assert abs(res.best_value - negativity(tgx_matrix(res.best_params))) < 1e-10
            # best_value is reproducible from the reported parameters
            assert abs(res.best_value - tgx_negativity(res.best_params)) < 1e-12

    def test_strict_excess_in_low_purity_region(self):
        # The family genuinely beats the rank-2 X ceiling only below P
        # = 17/25; at higher purities the two coincide exactly.
        assert maximize_tgx2(0.55, rng=0).best_value - n_x_p_rank2(0.55) > 1e-4
        assert abs(maximize_tgx2(0.75, rng=0).best_value - n_x_p_rank2(0.75)) < 1e-10

    def test_threshold_is_17_25(self):
        # At u = cos^2 theta1 = 1/2, w = sin^2 theta2 = 0 the TGX2 value is
        # the rank-2 X ceiling p1, and dN/dw = p2 (4 p2 / p1 - 1) <= 0 exactly
        # when p1 >= 4 p2, i.e. f >= 3/5, i.e. P >= 17/25.  The excess just
        # below the threshold closes quadratically.
        P = np.array([0.679, 17 / 25, 0.6801, 0.69, 0.8])
        gaps = [r.best_value - n_x_p_rank2(p) for r, p in zip(maximize_tgx2(P, rng=[0] * 5), P)]
        assert gaps[0] > 1e-7
        assert all(abs(gap) <= 1e-15 for gap in gaps[1:])

    def test_beats_dense_grid_scan(self, rng):
        P = 0.75
        res = maximize_tgx2(P, rng=3)
        f = np.sqrt(2 * P - 1)
        p1, p2 = 0.5 * (1 + f), 0.5 * (1 - f)
        best_grid = max(
            tgx_negativity(TgxParams((t1, t2), (p1, p2)))
            for t1 in np.linspace(0, np.pi, 200)
            for t2 in np.linspace(0, np.pi, 200)
        )
        assert res.best_value >= best_grid - 1e-6


def arc_weights(P, s):
    """The rank-3 probabilities (3, n) at each purity of P, at arc coordinate s."""
    g, alpha = _tgx3_consts(P)
    x = np.zeros((len(P), 4))
    x[:, 3] = s
    return _tgx3_weights(x, g, alpha).T


class TestArc:
    # The arc is cut, below pi/3, where g > 1 - 3e-12, that is P > 1/2 - 1e-12;
    # LOW ends with an uncut purity just short of the cut.
    LOW = np.append(np.linspace(1 / 3, 0.5 - 1e-9, 1001), 0.5 - 1.3e-12)
    HIGH = np.append(np.linspace(0.5, 1 - 1e-9, 1001)[1:], np.nextafter(0.5, 1))

    def test_uncut_arc_ends_at_the_neighbouring_vertices(self):
        # beta = +-pi/3 reaches the points where p1 meets p2, and p1 meets p3.
        p = arc_weights(self.LOW, np.pi / 2)
        assert np.abs(p[0] - p[1]).max() <= 1e-15
        p = arc_weights(self.LOW, -np.pi / 2)
        assert np.abs(p[0] - p[2]).max() <= 1e-15

    def test_cut_arc_ends_at_the_probability_floor(self):
        for s in (np.pi / 2, -np.pi / 2):
            assert np.abs(arc_weights(self.HIGH, s).min(axis=0) - 1e-12).max() <= 1e-15
        # beta = alpha u on 1,001 evenly spaced u in [-1, 1]
        for s in np.arcsin(np.linspace(-1.0, 1.0, 1001)):
            assert arc_weights(self.HIGH, s).min() >= 1e-12 - 1e-15

    def test_a_purity_above_p_max_is_searched_at_p_max(self):
        assert maximize_tgx3(1 - 1e-10, restarts=1, rng=0).P == 1 - 1e-9


class TestMaximizeTgx3:
    def test_domain(self):
        with pytest.raises(ValueError, match="domain"):
            maximize_tgx3(0.3)

    def test_forced_point_at_lower_end(self):
        res = maximize_tgx3(1.0 / 3.0, rng=0)
        assert abs(res.best_value - 1.0 / 3.0) < 1e-8

    def test_matches_rank3_ceiling_at_half(self):
        res = maximize_tgx3(0.5, rng=0)
        assert abs(res.best_value - 2.0 / 3.0) < 1e-8
        assert abs(res.best_value - n_x_p_rank3(0.5)) < 1e-8

    def test_deterministic_under_seed(self):
        a = maximize_tgx3(0.7, rng=4)
        b = maximize_tgx3(0.7, rng=4)
        assert a.best_value == b.best_value

    def test_beats_coarse_grid_scan(self):
        P = 0.9
        res = maximize_tgx3(P, rng=5)
        radius = np.sqrt(P - 1 / 3)
        u = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6)
        best_grid = -np.inf
        grid = np.linspace(0, np.pi, 20)
        for t in np.linspace(0, 2 * np.pi, 40):
            p = 1 / 3 + radius * (np.cos(t) * u + np.sin(t) * v)
            if np.min(p) <= 0:
                continue
            for t1 in grid:
                for t2 in grid:
                    for t3 in grid:
                        val = tgx_negativity(TgxParams((t1, t2, t3), p))
                        best_grid = max(best_grid, val)
        assert res.best_value >= best_grid - 1e-6

    def test_result_serialization(self):
        d = maximize_tgx3(0.5, rng=0).to_dict()
        assert set(d["best_params"]) == {"theta", "p"}
        assert d["converged"] in (True, False)
        # 32 starts, each at least its 5-vertex initial simplex
        assert 0 <= d["restarts_converged"] <= 32
        assert d["nfev"] >= 32 * 5

    def test_reaches_ceiling_with_every_route_to_the_optimum_cut(self, monkeypatch):
        # The search must find the rank-3 X optimum on its own: nothing it
        # can reach may hand it the optimal spectrum, curve or state.
        purities = (0.979, 0.992, 0.999, P_MAX)
        ceilings = [n_x_p_rank3(P) for P in purities]

        def cut(*args, **kwargs):
            raise AssertionError("the search consulted the known rank-3 optimum")

        monkeypatch.setattr(qqmems.tgx, "rank3_spectrum", cut, raising=False)
        monkeypatch.setattr(purity_mems, "rank3_spectrum", cut)
        family = dataclasses.replace(FAMILIES["rank3"], spectrum=cut, curve=cut, construct=cut)
        monkeypatch.setitem(FAMILIES, "rank3", family)
        results = maximize_tgx3(np.array(purities), rng=[100 + i for i in range(len(purities))])
        for P, ceiling, res in zip(purities, ceilings, results):
            assert abs(res.best_value - ceiling) <= 1e-8, P

    @pytest.mark.parametrize(
        "P", [1 / 3, np.nextafter(1 / 3, 1), 0.5, np.nextafter(0.5, 1), P_MAX]
    )
    def test_reported_probabilities_at_domain_edges(self, P):
        p = np.array(maximize_tgx3(float(P), rng=0).best_params.p)
        assert np.all(p > 0)
        assert abs(np.sum(p**2) - P) <= 1e-12
