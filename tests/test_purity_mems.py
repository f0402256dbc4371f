import dataclasses
import re

import numpy as np
import pytest

from qqmems.acs import acs_run
from qqmems.linalg import (
    check_density_matrix,
    eig_hermitian,
    negativity,
    partial_transpose_qubit,
    purity,
    random_density_fixed_purity,
)
from qqmems.purity_mems import (
    DEG_SPLIT,
    FAMILIES,
    THEOREMS,
    _f,
    _g,
    _h,
    construct_deg,
    construct_rank2,
    construct_rank3,
    deg_spectrum,
    hedemann_negativity,
    n_x_p_deg,
    n_x_p_rank2,
    n_x_p_rank3,
    rank2_spectrum,
    rank3_spectrum,
    verify_certificate,
)
from qqmems.spectrum import n_x_lambda
from qqmems.xstate import XState, x_negativity


class TestCurveAnchors:
    def test_rank2_at_half(self):
        assert abs(n_x_p_rank2(0.5) - 0.5) < 1e-12

    def test_rank3_at_third(self):
        assert abs(n_x_p_rank3(1.0 / 3.0) - 1.0 / 3.0) < 1e-12

    def test_deg_branch_continuity_at_split(self):
        below = (-1.0 + 5.0 * _h(DEG_SPLIT)) / 3.0
        above = (1.0 + _g(DEG_SPLIT)) / 3.0
        assert abs(below - 0.5) < 1e-12
        assert abs(above - 0.5) < 1e-12
        assert abs(n_x_p_deg(DEG_SPLIT) - 0.5) < 1e-12

    def test_deg_vanishes_at_separability_border(self):
        assert 0.0 <= n_x_p_deg(0.2 + 1e-8) < 1e-3

    @pytest.mark.parametrize(
        "fn,bad",
        [
            (n_x_p_rank2, 0.49),
            (n_x_p_rank3, 0.33),
            (n_x_p_deg, 0.2),
            (n_x_p_rank2, 1.0),
        ],
    )
    def test_domains(self, fn, bad):
        with pytest.raises(ValueError, match="domain"):
            fn(bad)


class TestSpectraAndConstructions:
    def test_deg_spectrum_branch_continuity(self):
        np.testing.assert_allclose(
            deg_spectrum(DEG_SPLIT - 1e-14), deg_spectrum(DEG_SPLIT), atol=1e-12
        )

    def test_deg_spectrum_lower_branch_values(self):
        # Lower branch: top (1+4h)/6, middle pair (1+h)/6, bottom triple (1-2h)/6.
        P = 0.3
        h = _h(P)
        np.testing.assert_allclose(
            deg_spectrum(P),
            [(1 + 4 * h) / 6, (1 + h) / 6, (1 + h) / 6, (1 - 2 * h) / 6, (1 - 2 * h) / 6, (1 - 2 * h) / 6],
            atol=1e-15,
        )

    def test_rank2_spectrum_at_half(self):
        np.testing.assert_allclose(rank2_spectrum(0.5), [0.5, 0.5, 0, 0, 0, 0], atol=1e-15)

    @pytest.mark.parametrize(
        "construct,curve,grid",
        [
            (construct_rank2, n_x_p_rank2, np.linspace(0.5, 0.99, 21)),
            (construct_rank3, n_x_p_rank3, np.linspace(1 / 3, 0.99, 21)),
            (construct_deg, n_x_p_deg, np.linspace(0.21, 0.99, 21)),
        ],
    )
    def test_constructions_attain_curves(self, construct, curve, grid):
        for P in grid:
            x = construct(P)
            rho = x.to_matrix()
            assert abs(purity(rho) - P) < 1e-12
            target = max(0.0, curve(P))
            assert abs(x_negativity(x) - target) < 1e-10
            assert abs(negativity(rho) - target) < 1e-10

    @pytest.mark.parametrize(
        "construct,grid",
        [
            (construct_rank2, np.array([0.5, 0.7, 0.95])),
            (construct_rank3, np.array([1 / 3, 0.5, 0.95])),
            (construct_deg, np.array([0.25, 0.3, 3 / 8, 0.6])),  # both branches
        ],
    )
    def test_purity_array_gives_one_stacked_xstate(self, construct, grid):
        x = construct(grid)
        assert isinstance(x, XState) and x.a.shape == (len(grid), 3)
        singles = [construct(float(P)) for P in grid]
        assert all(isinstance(y, XState) and y.a.shape == (3,) for y in singles)
        assert np.array_equal(x.to_matrix(), [y.to_matrix() for y in singles])

    def test_spectrum_purity_identities(self):
        for P in (0.25, 0.35, 0.5, 0.8):
            assert abs(np.sum(deg_spectrum(P) ** 2) - P) < 1e-12
            if P >= 0.5:
                assert abs(np.sum(rank2_spectrum(P) ** 2) - P) < 1e-12
            if P >= 1 / 3:
                assert abs(np.sum(rank3_spectrum(P) ** 2) - P) < 1e-12


def _pt_spectrum_bound(P, k):
    """B_k(P) = 2kx with kx^2 + (1 + kx)^2/(6 - k) = P: no 2x3 state of
    purity P whose partial transpose has k negative eigenvalues has a larger
    negativity."""
    return (np.sqrt(k * k - 6 * k + 6 * k * (6 - k) * P) - k) / 3.0


class TestAllStatesBelowThreeEighths:
    """The triply degenerate X ceiling bounds every 2x3 state on (1/5, 3/8].

    The partial transpose keeps the trace and tr rho^2, so its eigenvalues
    sum to 1 and their squares to P.  With k of them negative, summing to
    -N/2, the squares are least when the negative ones are equal and the
    6 - k others are equal: hence N <= B_k(P), and B_1 is the ceiling."""

    GRID = np.linspace(0.2, DEG_SPLIT, 20_002)[1:]

    def test_b1_is_the_ceiling_and_bounds_every_b_k(self):
        b1 = _pt_spectrum_bound(self.GRID, 1)
        assert np.abs(b1 - n_x_p_deg(self.GRID)).max() <= 1e-15
        for k in range(2, 6):
            assert np.all(_pt_spectrum_bound(self.GRID, k) <= b1), k

    def test_random_states_and_their_ascents_stay_below(self):
        rng = np.random.default_rng(38)
        P = rng.uniform(0.2, DEG_SPLIT, 4000)
        rho = random_density_fixed_purity(P, rng.integers(0, 2**31 - 1, size=len(P)))
        pt = partial_transpose_qubit(rho)
        assert np.array_equal(np.trace(pt, axis1=-2, axis2=-1), np.trace(rho, axis1=-2, axis2=-1))
        assert np.abs(purity(pt) - purity(rho)).max() <= 1e-15
        N = negativity(rho)
        assert (N - n_x_p_deg(P)).max() <= 1e-12
        k = np.sum(np.linalg.eigvalsh(pt) < 0.0, axis=-1)
        entangled = k > 0
        assert np.all(N[entangled] <= _pt_spectrum_bound(P[entangled], k[entangled]) + 1e-12)
        runs = acs_run(P[:400], rho[:400])
        final = check_density_matrix(np.stack([run.final_state for run in runs]))
        assert (negativity(final) - n_x_p_deg(P[:400])).max() <= 1e-12


def test_b2_is_attained_on_a_quarter_to_a_half():
    # W = span{(|00> + sqrt2|12>)/sqrt3, (sqrt2|01> + |10>)/sqrt3}, the support
    # of the TGX2 optimum at P = 1/2.  rho(t) = (1 - t)I/6 + (t/2)P_W has
    # purity 1/6 + t^2/3, and its partial transpose (1 + t)I/6 - (t/2)Q, with
    # Q a rank-2 projector (tests/test_exact.py), has two negative eigenvalues
    # for t > 1/2: N = B_2(P) = (2/3)(sqrt(12P - 2) - 1).
    P = np.linspace(0.25, 0.5, 5001)[1:]
    w = np.zeros((2, 6))
    w[0, [0, 5]] = 1.0, np.sqrt(2.0)
    w[1, [1, 3]] = np.sqrt(2.0), 1.0
    p_w = w.T @ w / 3.0
    t = np.sqrt(3.0 * (P - 1.0 / 6.0))[:, None, None]
    rho = check_density_matrix((1.0 - t) * np.eye(6) / 6.0 + 0.5 * t * p_w)
    assert np.abs(negativity(rho) - _pt_spectrum_bound(P, 2)).max() <= 1e-14
    assert np.abs(purity(rho) - P).max() <= 1e-15
    pt_eigs = np.linalg.eigvalsh(partial_transpose_qubit(rho))
    assert np.all(np.sum(pt_eigs < -1e-12, axis=-1) == 2)


class TestHierarchy:
    def test_ordering_wherever_defined(self):
        for P in np.linspace(0.21, 0.999, 1000):
            nd = n_x_p_deg(P)
            if P >= 1 / 3:
                assert nd >= n_x_p_rank3(P) - 1e-12
            if P >= 0.5:
                assert n_x_p_rank3(P) >= n_x_p_rank2(P) - 1e-12

    def test_strict_gap_below_split(self):
        gaps = [n_x_p_deg(P) - n_x_p_rank3(P) for P in np.linspace(0.34, 0.374, 50)]
        assert max(gaps) > 1e-6
        assert min(gaps) > -1e-12

    def test_deg_equals_rank3_above_split(self):
        for P in np.linspace(DEG_SPLIT, 0.999, 100):
            assert n_x_p_deg(P) == n_x_p_rank3(P)


class TestLocalMaximality:
    """Random feasible spectra respecting each theorem's spectral pattern
    never beat the closed-form curve (the X-state ceiling per spectrum is
    n_x_lambda, so spectra are the right perturbation space)."""

    @staticmethod
    def _project_purity(head, P, head_purity_target):
        # Interpolate a positive head vector toward its uniform point so its
        # sum is preserved and its squared sum hits the target; None if the
        # required interpolation leaves the simplex.
        k = head.size
        s = head.sum()
        u = np.full(k, s / k)
        base = float(u @ u)
        dev = float((head - u) @ (head - u))
        if dev == 0.0 or head_purity_target < base:
            return None
        t = np.sqrt((head_purity_target - base) / dev)
        out = u + t * (head - u)
        return out if np.min(out) >= 0.0 else None

    def test_rank3_probes(self, rng):
        for P in (0.4, 0.6, 0.85):
            curve = n_x_p_rank3(P)
            tried = 0
            while tried < 1000:
                head = self._project_purity(rng.dirichlet(np.ones(3)), P, P)
                if head is None:
                    continue
                tried += 1
                lam = np.concatenate([np.sort(head)[::-1], np.zeros(3)])
                assert n_x_lambda(lam) <= curve + 1e-8

    def test_deg_probes(self, rng):
        for P in (0.25, 0.33, 0.5, 0.8):
            curve = n_x_p_deg(P)
            ld_opt = deg_spectrum(P)[3]
            tried = 0
            while tried < 1000:
                ld = ld_opt * rng.uniform(0.0, 1.5)
                head_sum = 1.0 - 3.0 * ld
                head_sq = P - 3.0 * ld * ld
                if head_sum <= 0 or head_sq <= 0:
                    continue
                head = self._project_purity(rng.dirichlet(np.ones(3)) * head_sum, P, head_sq)
                if head is None or np.min(head) < ld:
                    continue
                tried += 1
                lam = np.concatenate([np.sort(head)[::-1], np.full(3, ld)])
                assert n_x_lambda(lam) <= curve + 1e-8


class TestHedemannCurve:
    def test_coincides_with_deg_above_split(self):
        for P in np.linspace(DEG_SPLIT, 0.999, 50):
            assert hedemann_negativity(P) == n_x_p_deg(P)

    def test_negative_radicand_returns_none(self):
        assert hedemann_negativity(0.3) is None

    def test_defined_region_near_separability_border(self):
        # The radicand is nonnegative only up to about P = 3/14 on the lower
        # branch; the curve tends to 0 at the border.
        val = hedemann_negativity(0.2 + 1e-8)
        assert val is not None and abs(val) < 1e-3
        assert hedemann_negativity(0.21) is not None
        assert hedemann_negativity(3.0 / 14.0 + 1e-3) is None

    def test_domain(self):
        with pytest.raises(ValueError, match="domain"):
            hedemann_negativity(0.15)


class TestCertificates:
    @pytest.mark.parametrize("theorem_id,lo", [("rank2", 0.5), ("rank3", 1 / 3), ("deg", 0.201)])
    def test_grid_verification(self, theorem_id, lo):
        for P in np.linspace(lo, 0.999, 50):
            report = verify_certificate(theorem_id, P)
            assert report.verified
            assert report.duality_gap <= 1e-10
            assert all(abs(r) <= 1e-10 for r in report.dual_trace_residuals)

    @pytest.mark.parametrize("theorem_id,P", [("rank2", 0.5), ("rank3", 1 / 3)])
    def test_boundary_cases_are_asymptotic(self, theorem_id, P):
        report = verify_certificate(theorem_id, P)
        assert report.asymptotic
        tail = report.asymptotic_tail
        assert len(tail) == 3
        assert all(t < 0 for t in tail) and tail[0] < tail[1] < tail[2]
        assert tail[2] > -1e-6

    def test_interior_points_are_not_asymptotic(self):
        assert not verify_certificate("rank2", 0.6).asymptotic
        assert not verify_certificate("rank3", 0.4).asymptotic
        assert not verify_certificate("deg", 0.25).asymptotic

    def test_rank2_boundary_dual_value_is_half_for_any_z(self):
        # The dual objective of the boundary family is z-independent.
        F0 = np.diag([1.0, 0.5, -0.5])
        for z in (1.0, 10.0, 1e6):
            Z = FAMILIES["rank2"].boundary_dual(z)
            assert abs(np.trace(F0 @ Z) - 0.5) < 1e-9

    def test_rationalized_eigenvalues_match_direct_diagonalization(self):
        # At moderate z the closed forms must agree with a direct eigensolve
        # of the dual family; at z = 1e9 the naive difference would cancel.
        for theorem_id in ("rank2", "rank3"):
            fam = FAMILIES[theorem_id]
            for z in (1.0, 3.0, 50.0):
                Z = fam.boundary_dual(z)
                w, _ = eig_hermitian(Z)
                lambda_minus, lambda_plus = fam.boundary_eigs(z)
                assert abs(w[0] - lambda_minus) < 1e-10
                assert abs(w[-1] - lambda_plus) < 1e-8

    @pytest.mark.parametrize("theorem_id", ["rank4", ["deg"], np.array(["deg"]), None])
    def test_unknown_theorem(self, theorem_id):
        match = re.escape(f"unknown theorem id {theorem_id!r}; expected one of {THEOREMS}")
        with pytest.raises(ValueError, match=match):
            verify_certificate(theorem_id, 0.5)

    @pytest.mark.parametrize(
        "theorem_id,lo,hi,zeros",
        [
            ("rank2", 0.51, 0.99, 1),
            ("rank3", 1.0 / 3.0 + 0.01, 0.99, 1),
            ("deg", 0.21, 0.37, 1),
            ("deg", DEG_SPLIT, 0.99, 2),
        ],
    )
    def test_primal_optimum_structure_from_the_record(self, theorem_id, lo, hi, zeros):
        # F(x) = F_0(P) + sum_i x_i F_i, assembled here from the record's
        # constants at x = the top m eigenvalues of the closed-form spectrum:
        # PSD with exactly `zeros` zero eigenvalues, attaining curve + offset.
        fam = FAMILIES[theorem_id]
        P = np.linspace(lo, hi, 50)
        m = len(fam.c)
        x = fam.spectrum(P)[:, :m]
        F = np.tile(np.array(fam.F0), (len(P), 1, 1))
        F[:, 0, 0] -= x.sum(axis=1)
        F[:, -1, -1] = P - fam.shift + fam.corner * x.sum(axis=1)
        F[:, 1:-1, -1] += x
        F[:, -1, 1:-1] += x
        assert np.array_equal(F, F.transpose(0, 2, 1))
        w = np.linalg.eigvalsh(F)
        assert np.all(np.abs(w[:, :zeros]) <= 1e-12)
        assert np.all(w[:, zeros] >= 1e-3)
        objective = np.abs(x @ np.array(fam.c))
        assert np.all(np.abs(objective - (fam.curve(P) + fam.offset)) <= 1e-12)

    @pytest.mark.parametrize(
        "theorem_id,lo,hi",
        [
            ("rank2", 0.5, 1.0),
            ("rank3", 1.0 / 3.0, 1.0),
            ("deg", 0.2, DEG_SPLIT),
            ("deg", DEG_SPLIT, 1.0),
        ],
    )
    def test_dual_structure_behind_the_psd_rule(self, theorem_id, lo, hi):
        # The margin min(0, z00, y.y / s) is the least eigenvalue of
        # y y^T / s + z00 E_00 only if y_0 = 0; it reads PSD only if s > 0
        # and z00 >= 0.  Checked inside each open branch, close to both ends
        # and (deg) at the split itself, where z00 = 0.
        near = np.concatenate([lo + np.logspace(-11, -2, 10), hi - np.logspace(-11, -2, 10)])
        P = np.concatenate([np.linspace(lo, hi, 202)[1:-1], near])
        if (theorem_id, lo) == ("deg", DEG_SPLIT):
            P = np.append(P, [DEG_SPLIT, np.nextafter(DEG_SPLIT, 1.0)])
        y, s, z00 = FAMILIES[theorem_id].dual(P)
        assert y.shape == (len(P), len(FAMILIES[theorem_id].F0))
        assert np.all(y[:, 0] == 0.0)
        assert np.all(s > 0.0)
        assert np.all(np.broadcast_to(z00, s.shape) >= 0.0)

    @pytest.mark.parametrize("theorem_id,P", [("rank2", 0.6), ("rank3", 0.4), ("deg", 0.3),
                                              ("deg", 0.6)])
    @pytest.mark.parametrize("flip", ["s", "z00"])
    def test_a_dual_that_is_not_psd_is_unverified(self, theorem_id, P, flip, monkeypatch):
        # A transcription error that makes s or z00 negative: the margin is
        # then min(z00, y.y / s) < 0, and the certificate fails.
        fam = FAMILIES[theorem_id]

        def bad_dual(grid):
            y, s, z00 = fam.dual(grid)
            return (y, -s, z00) if flip == "s" else (y, s, np.full_like(s, -0.5))

        monkeypatch.setitem(FAMILIES, theorem_id, dataclasses.replace(fam, dual=bad_dual))
        report = verify_certificate(theorem_id, P)
        (y,), (s,), z00 = bad_dual(np.array([P]))
        expected = min(float(np.min(z00)), float(y @ y / s))
        assert expected < -1e-10
        assert not report.verified
        assert report.dual_psd_margin == pytest.approx(expected, rel=1e-15)

    def test_certificate_data_off_the_curve_is_an_error(self, monkeypatch):
        # a transcription error in the primal data: the primal objective no
        # longer maps back to the curve value
        monkeypatch.setitem(FAMILIES, "rank2", dataclasses.replace(FAMILIES["rank2"], offset=0.5))
        match = "certificate data for rank2 at P=0.7 do not reproduce the curve"
        with pytest.raises(RuntimeError, match=re.escape(match)):
            verify_certificate("rank2", 0.7)

    @pytest.mark.parametrize("theorem_id", THEOREMS)
    def test_purities_just_above_the_lower_end_verify(self, theorem_id):
        # lo + 10**u for u in [-11, -6]: above the 1e-12 asymptotic band the
        # interior dual's entries grow like 1/f, 1/g, and an eigh of it read
        # a margin down to -1.1e-10 on rank 3.  The structural margin is 0.
        lo = FAMILIES[theorem_id].lo
        P = lo + 10.0 ** np.random.default_rng(2026).uniform(-11.0, -6.0, 2000)
        reports = verify_certificate(theorem_id, P)
        assert all(r.verified for r in reports)
        assert all(r.dual_psd_margin == 0.0 for r in reports)

    @pytest.mark.parametrize("theorem_id", THEOREMS)
    def test_the_record_is_hashable(self, theorem_id):
        assert isinstance(hash(FAMILIES[theorem_id]), int)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, True, np.True_])
    def test_rejects_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol!r}"):
            verify_certificate("deg", 0.25, tol=tol)

    @pytest.mark.parametrize("tol", ["1e-10", 1e-10 + 0j, None, np.array([1e-10, 1e-9])])
    def test_tol_that_is_not_real_is_a_type_error(self, tol):
        with pytest.raises(TypeError, match=re.escape(f"tol {tol!r} is not a real number")):
            verify_certificate("rank2", 0.7, tol=tol)

    @pytest.mark.parametrize("theorem_id", ["rank2", "rank3"])
    def test_an_array_gives_the_scalar_reports(self, theorem_id):
        # The rows where the dual's scale s is 0 take the asymptotic branch:
        # lo, and for rank 3 also nextafter(lo, 1), where 6P - 2 rounds to 0;
        # the rest the interior dual, all in one stack.
        fam = FAMILIES[theorem_id]
        P = np.array([fam.lo, np.nextafter(fam.lo, 1.0), fam.lo + 1e-11, 0.55, 0.7, 0.999])
        reports = verify_certificate(theorem_id, P)
        assert isinstance(reports, list) and len(reports) == len(P)
        assert [r.to_dict() for r in reports] == [
            verify_certificate(theorem_id, float(p)).to_dict() for p in P
        ]
        asymptotic = [True, theorem_id == "rank3", False, False, False, False]
        assert [r.asymptotic for r in reports] == asymptotic == (fam.dual(P)[1] == 0).tolist()
        assert reports[1].verified and reports[2].verified

    @pytest.mark.parametrize("theorem_id", ["rank2", "rank3"])
    def test_only_lo_is_asymptotic_within_1e_12(self, theorem_id):
        lo = FAMILIES[theorem_id].lo
        reports = verify_certificate(theorem_id, lo + np.array([0.0, 1e-13, 5e-13, 1e-12]))
        assert [r.asymptotic for r in reports] == [True, False, False, False]
        assert reports[0].verified and reports[0].asymptotic_tail
        assert not any(r.asymptotic_tail for r in reports[1:])

    @pytest.mark.parametrize("P", [np.array([[0.25, 0.3]]), [[0.25]]])
    def test_rejects_a_2d_array_of_purities(self, P):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(P)}")):
            verify_certificate("deg", P)

    def test_failed_check_is_reported_unverified(self):
        assert not verify_certificate("deg", 0.25, tol=1e-30).verified

    def test_zero_tol_is_accepted(self):
        # tol >= 0 is inclusive: the asymptotic rank-2 end passes exactly, an
        # interior rank-3 point fails on rounding without raising
        assert verify_certificate("rank2", 0.5, tol=0).verified
        assert not verify_certificate("rank3", 0.6, tol=0).verified

    @pytest.mark.parametrize(
        "tail,plus",
        [
            ((-1e-7, -1e-8, 1e-9), 1.0),
            ((-1e-7, -1e-7, -1e-9), 1.0),
            ((-3e-6, -2e-6, -1e-6), 1.0),
            (None, -1.0),
        ],
        ids=["positive_entry", "not_increasing", "last_at_minus_1e-6", "negative_plus"],
    )
    def test_each_asymptotic_clause_fails_on_its_own(self, monkeypatch, tail, plus):
        # Each record breaks one clause of the asymptotic PSD test and keeps
        # the others: the tail (lambda_- at z = 1e3, 1e6, 1e9) negative,
        # increasing and last above -1e-6, and lambda_+ >= 0.
        fam = FAMILIES["rank2"]
        zs = (1e3, 1e6, 1e9)

        def boundary_eigs(z):
            minus, lam_plus = fam.boundary_eigs(z)
            return (minus if tail is None else tail[zs.index(z)]), plus * lam_plus

        monkeypatch.setitem(FAMILIES, "rank2", dataclasses.replace(fam, boundary_eigs=boundary_eigs))
        report = verify_certificate("rank2", 0.5)
        assert report.asymptotic and not report.verified
        if tail is not None:
            assert report.asymptotic_tail == list(tail)

    def test_theorem_registry(self):
        assert THEOREMS == ("rank2", "rank3", "deg")
