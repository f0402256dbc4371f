import argparse
import csv
import gc
import json
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

import qqmems.acs
import qqmems.cli
import qqmems.tgx
from qqmems.cli import (
    EXIT_CHECK,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    CheckError,
    _validated,
    build_parser,
    main,
)
from qqmems.tgx import P_MAX

FIXTURES = Path(__file__).parent / "fixtures"
_SPECTRUM_STATE = ["state", "--family", "spectrum", "--spectrum", "0.4,0.3,0.1,0.1,0.1,0"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestCurves:
    def test_blank_cells_outside_domains(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code, _, _ = run(["curves", "--p-min", "0.25", "--p-max", "0.25", "--p-steps", "1",
                          "-o", str(out)], capsys)
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["P", "N2", "N3", "Ndeg"]
        assert rows[0][1] == "" and rows[0][2] == ""
        assert abs(float(rows[0][3]) - 0.19371294336139652) < 1e-12

    def test_grid_below_fifth_gives_blank_rows(self, capsys):
        code, out, _ = run(["curves", "--p-min", "0.1", "--p-max", "0.15", "--p-steps", "3"],
                           capsys)
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["0.10000000000000001,,,", "0.125,,,",
                                        "0.14999999999999999,,,"]

    def test_first_block_entirely_below_fifth(self, capsys):
        # 700 points on [0, 0.5]: the first evaluation block (P <= 0.183) lies
        # outside every domain and gates no cell.
        code, out, _ = run(["curves", "--p-min", "0", "--p-max", "0.5", "--p-steps", "700"],
                           capsys)
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 700
        for row in rows:
            assert (row[3] != "") == (float(row[0]) > 0.2)
        assert rows[-1][1] != "" and rows[-1][2] != ""

    def test_anchor_row_at_half(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code, _, _ = run(["curves", "--p-min", "0.5", "--p-max", "0.5", "--p-steps", "1",
                          "-o", str(out)], capsys)
        assert code == EXIT_OK
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-15)
        assert float(rows[0][2]) == pytest.approx(2 / 3, abs=1e-12)
        assert float(rows[0][3]) == pytest.approx(2 / 3, abs=1e-12)

    def test_lf_line_endings_and_17_digits(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        run(["curves", "--p-min", "0.3", "--p-max", "0.6", "--p-steps", "3", "-o", str(out)], capsys)
        raw = out.read_bytes()
        assert b"\r" not in raw
        # 17 significant digits round-trip float64 exactly
        _, rows = read_csv(out)
        val = float(rows[2][3])
        assert f"{val:.17g}" == rows[2][3]


class TestGap:
    def test_markers_and_zero_diff(self, tmp_path, capsys):
        out = tmp_path / "gap.csv"
        code, _, _ = run(["gap", "--p-min", "0.3", "--p-max", "0.5", "--p-steps", "2",
                          "-o", str(out)], capsys)
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["P", "Ndeg", "Nhed", "diff", "reason"]
        assert rows[0][2] == "" and rows[0][4] == "negative radicand"
        assert float(rows[1][3]) == 0.0


class TestBatchedGate:
    @pytest.mark.parametrize("command", ["curves", "gap"])
    def test_unachievable_tolerance_is_check_failure_naming_a_purity(self, command, capsys):
        code, out, err = run([command, "--p-steps", "50", "--tolerance", "1e-30"], capsys)
        assert code == EXIT_CHECK
        assert "check failure" in err
        # the first gated cell of the grid, by name and purity
        assert "Ndeg@0.200000001: closed-form value" in err
        assert out == ""

    def test_deviation_equal_to_the_tolerance_passes(self, monkeypatch):
        # 2**-40 off an oracle of exactly 0: within a tolerance of 2**-40, not
        # within one float less
        monkeypatch.setattr(qqmems.cli, "negativity", lambda m: np.zeros(len(m)))
        value, states, tol = np.array([2.0**-40]), np.zeros((1, 6, 6)), 2.0**-40
        assert _validated(value, states, tol, str) is value
        with pytest.raises(CheckError, match=r"^0: closed-form value"):
            _validated(value, states, np.nextafter(tol, 0), str)

    def test_first_failing_row_in_emission_order(self, capsys):
        code, _, err = run(["curves", "--p-min", "0.6", "--p-max", "0.9", "--p-steps", "7",
                            "--tolerance", "1e-17"], capsys)
        assert code == EXIT_CHECK
        assert err.startswith("check failure: N2@0.6: closed-form value ")

    @pytest.mark.parametrize(
        "args,fixture",
        [
            (["curves", "--p-steps", "260"], "curves_steps260_seed5.csv"),
            (["gap", "--p-steps", "260"], "gap_steps260_seed5.csv"),
            (["prop1", "--count", "600"], "prop1_count600_seed5.txt"),
        ],
    )
    def test_stdout_matches_recorded_bytes(self, args, fixture, capsys):
        # Recorded from the one-row-at-a-time implementation; 260 rows span
        # two evaluation blocks.
        code, out, _ = run(args + ["--seed", "5"], capsys)
        assert code == EXIT_OK
        assert out == (FIXTURES / fixture).read_text()


class TestRecordedFamilyArtifacts:
    @pytest.mark.parametrize(
        "args,fixture,trace_fixture",
        [
            (["certify", "--p-steps", "20"], "certify_steps20.json", None),
            (["state", "--family", "rank2", "--p", "0.7"], "state_rank2_p0.7.json", None),
            (["state", "--family", "rank3", "--p", "0.45"], "state_rank3_p0.45.json", None),
            (["state", "--family", "deg", "--p", "0.3"], "state_deg_p0.3.json", None),
            (["state", "--family", "deg", "--p", "0.6"], "state_deg_p0.6.json", None),
            (["tgx2", "--p-steps", "25", "--seed", "1"], "tgx2_steps25_seed1.csv", None),
            (["tgx3", "--p-steps", "10", "--seed", "1"], "tgx3_steps10_seed1.csv", None),
            (["acs", "--runs", "100", "--seed", "1"], "acs_runs100_seed1.csv",
             "acs_trace_runs100_seed1.csv"),
            (["acs", "--runs", "400", "--seed", "1"], "acs_runs400_seed1.csv",
             "acs_trace_runs400_seed1.csv"),
        ],
    )
    def test_stdout_matches_recorded_bytes(self, args, fixture, trace_fixture, tmp_path, capsys):
        # state was recorded before the family records replaced the
        # per-command tables; tgx2, tgx3 and acs before the formulas moved
        # into the modules that own their inputs.  certify was re-recorded
        # when the interior duals became y y^T / s (104 numeric fields moved,
        # by at most 1.0e-15), and again when their PSD margin was read from
        # that structure instead of eigh: 43 interior dual_psd_margin fields
        # went from eigh rounding (|v| <= 1.83e-15) to 0.0.  acs was
        # re-recorded when the rho-step began to work on each objective less
        # its maximum, centred twice: 83 best values moved, by at most
        # 6.7e-15, and 13 trace values, by at most 3.6e-15.  tgx2 and tgx3
        # were re-recorded when the search objective became the X-block
        # formula on rho^Gamma's three blocks: 18 of 100 and 20 of 40 cells
        # moved, by at most 2.3e-16.  The 400-run acs pair is the benchmark's
        # command at seed 1; it crosses block boundaries of both 32 and 128
        # runs.
        trace = tmp_path / "trace.csv"
        if trace_fixture is not None:
            args = args + ["--trace-output", str(trace)]
        code, out, _ = run(args, capsys)
        assert code == EXIT_OK
        assert out == (FIXTURES / fixture).read_text()
        if trace_fixture is not None:
            assert trace.read_text() == (FIXTURES / trace_fixture).read_text()


class TestCertify:
    def test_full_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "certify.json"
        code, _, _ = run(["certify", "--p-steps", "10", "-o", str(out)], capsys)
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["all_verified"]
        assert data["count"] == 30

    def test_single_boundary_point_flags_asymptotic(self, capsys):
        code, out, _ = run(["certify", "--theorem", "rank2", "--p-min", "0.5", "--p-steps", "1"],
                           capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["reports"][0]["asymptotic"]
        assert data["reports"][0]["verified"]

    def test_purity_just_above_rank3_lower_end_verifies(self, capsys):
        # 5e-12 above 1/3, just outside the asymptotic band: the interior
        # dual's margin is read from its structure, not from eigh rounding.
        code, out, _ = run(["certify", "--theorem", "rank3", "--p-min", "0.33333333333833333",
                            "--p-steps", "1"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)["reports"][0]
        assert report["verified"] and not report["asymptotic"]
        assert report["dual_psd_margin"] == 0.0

    def test_purity_just_above_rank2_lower_end_verifies(self, capsys):
        # nextafter(0.5, 1): s = 2 sqrt(2P - 1) > 0, so the interior dual
        # certifies it; only P = 0.5 itself takes the asymptotic branch.
        code, out, _ = run(["certify", "--theorem", "rank2", "--p-min", "0.5000000000000001",
                            "--p-steps", "1"], capsys)
        assert code == EXIT_OK
        report = json.loads(out)["reports"][0]
        assert report["verified"] and not report["asymptotic"]

    def test_out_of_domain_is_usage_error(self, capsys):
        code, _, err = run(["certify", "--theorem", "rank2", "--p-min", "0.4", "--p-steps", "1"],
                           capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ") and "purity 0.4 outside rank-2 domain" in err

    def test_unachievable_tolerance_is_check_failure(self, tmp_path, capsys):
        code, _, err = run(["certify", "--theorem", "deg", "--p-min", "0.25", "--p-steps", "1",
                            "--tolerance", "1e-30", "-o", str(tmp_path / "x.json")], capsys)
        assert code == EXIT_CHECK
        assert "check failure" in err


class TestTgx:
    def test_determinism_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["tgx2", "--p-min", "0.5", "--p-max", "0.8", "--p-steps", "3", "--seed", "5",
                "--restarts", "8"]
        assert run(args + ["-o", str(a)], capsys)[0] == EXIT_OK
        assert run(args + ["-o", str(b)], capsys)[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_tgx3_gap_column_small(self, tmp_path, capsys):
        out = tmp_path / "t3.csv"
        code, _, _ = run(["tgx3", "--p-min", "0.4", "--p-max", "0.8", "--p-steps", "3",
                          "--seed", "2", "-o", str(out)], capsys)
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["P", "tgx_max", "x_reference", "gap"]
        assert all(abs(float(r[3])) < 1e-8 for r in rows)

    def test_formula_off_the_trace_norm_is_check_failure(self, capsys, monkeypatch):
        exact = qqmems.tgx.tgx_negativity
        monkeypatch.setattr(qqmems.tgx, "tgx_negativity", lambda q: exact(q) + 1e-6)
        code, out, err = run(["tgx3", "--p-min", "0.6", "--p-steps", "1", "--restarts", "4"],
                             capsys)
        assert code == EXIT_CHECK
        assert "tgx@0.6: closed-form value" in err
        assert out == ""

    def test_rows_across_search_blocks_match_single_searches(self, tmp_path, capsys):
        # 300 purities span two blocks of the batched search; a row on either
        # side of the seam is the single search at its purity with its own
        # child seed, drawn in grid order.
        out = tmp_path / "t2.csv"
        args = ["tgx2", "--p-steps", "300", "--seed", "9", "--restarts", "2", "-o", str(out)]
        assert run(args, capsys)[0] == EXIT_OK
        _, rows = read_csv(out)
        grid = np.linspace(0.5, 0.999, 300)
        seeds = np.random.default_rng(9).integers(2**63, size=300)
        assert len(rows) == 300
        for i in (0, 255, 256, 299):
            res = qqmems.tgx.maximize_tgx2(grid[i], restarts=2, rng=seeds[i])
            assert rows[i][:2] == [f"{grid[i]:.17g}", f"{res.best_value:.17g}"], i

    @pytest.mark.parametrize("command", ["tgx2", "tgx3"])
    def test_purity_above_p_max_is_written_as_searched(self, command, capsys):
        # the search runs at P_MAX, so the row reports P_MAX and the ceiling there
        code, out, _ = run([command, "--p-min", "0.9999999999", "--p-max", "0.99999999995",
                            "--p-steps", "1"], capsys)
        assert code == EXIT_OK
        (row,) = out.splitlines()[1:]
        P, _, _, gap = map(float, row.split(","))
        assert P == P_MAX and gap >= -1e-10

    def test_below_domain_is_usage_error(self, capsys):
        code, _, _ = run(["tgx2", "--p-min", "0.3", "--p-max", "0.6"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_nonpositive_restarts_is_usage_error(self, restarts, capsys):
        code, out, err = run(["tgx2", "--p-steps", "1", "--p-min", "0.6", "--restarts", restarts],
                             capsys)
        assert code == EXIT_USAGE
        assert "restarts" in err and "Traceback" not in err
        assert out == ""


class TestAcs:
    def test_summary_and_trace(self, tmp_path, capsys):
        out, tr = tmp_path / "acs.csv", tmp_path / "trace.csv"
        code, _, _ = run(["acs", "--runs", "5", "--seed", "1", "-o", str(out),
                          "--trace-output", str(tr)], capsys)
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["P", "seed", "best_value", "n_deg_reference", "deviation",
                          "rounds", "status"]
        assert len(rows) == 5
        t_header, t_rows = read_csv(tr)
        assert t_header == ["run_index", "P", "round", "value"]
        # trace values are nondecreasing within each run
        by_run = {}
        for r in t_rows:
            by_run.setdefault(r[0], []).append(float(r[3]))
        for vals in by_run.values():
            assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["acs.csv", "trace.csv"]

    def test_failed_trace_write_leaves_summary_untouched(self, tmp_path, capsys):
        out = tmp_path / "acs.csv"
        out.write_text("previous\n")
        code, stdout, err = run(["acs", "--runs", "3", "-o", str(out),
                                 "--trace-output", str(tmp_path / "nodir" / "trace.csv")], capsys)
        assert code == EXIT_IO and err.startswith("i/o error: ")
        assert str(tmp_path / "nodir" / "trace.csv") in err and ".tmp" not in err
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["acs.csv"]
        assert stdout == ""

    @pytest.mark.parametrize("link", [False, True])
    def test_summary_and_trace_on_one_file_is_usage_error(self, tmp_path, capsys, link):
        out = tmp_path / "acs.csv"
        out.write_text("previous\n")
        trace = out
        if link:
            trace = tmp_path / "link.csv"
            trace.symlink_to(out)
        code, stdout, err = run(["acs", "--runs", "2", "-o", str(out),
                                 "--trace-output", str(trace)], capsys)
        assert code == EXIT_USAGE and err.startswith("usage error: ")
        assert "name one file" in err and str(trace) in err
        assert out.read_text() == "previous\n" and stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted({out.name, trace.name})

    def test_summary_and_trace_on_one_file_is_rejected_before_any_run(self, tmp_path, capsys,
                                                                       monkeypatch):
        monkeypatch.setattr(qqmems.cli, "acs_run", lambda *args: pytest.fail("a run started"))
        out = tmp_path / "acs.csv"
        code, stdout, err = run(["acs", "--runs", "400", "-o", str(out),
                                 "--trace-output", str(out)], capsys)
        assert code == EXIT_USAGE and "name one file" in err
        assert stdout == "" and not out.exists()

    def test_summary_and_trace_on_one_device_are_written_in_place(self, capsys):
        code, stdout, err = run(["acs", "--runs", "2", "-o", os.devnull,
                                 "--trace-output", os.devnull], capsys)
        assert code == EXIT_OK and stdout == "" and err == ""

    def test_sweep_reaches_acs_run_in_blocks_of_block(self, capsys, monkeypatch):
        sizes = []

        def recording(P, rho0):
            sizes.append(len(P))
            return qqmems.acs.acs_run(P, rho0)

        monkeypatch.setattr(qqmems.cli, "acs_run", recording)
        code, _, _ = run(["acs", "--runs", "300", "--seed", "1", "-o", os.devnull], capsys)
        assert code == EXIT_OK and sizes == [256, 44]

    def test_sweep_lets_go_of_each_block(self, capsys, monkeypatch):
        # live traces of each earlier block whenever a block reaches acs_run:
        # the one before is still bound to the loop, none older survive
        blocks, alive = [], []

        def recording(P, rho0):
            gc.collect()
            alive.append([sum(ref() is not None for ref in refs) for refs in blocks])
            traces = qqmems.acs.acs_run(P, rho0)
            blocks.append([weakref.ref(trace) for trace in traces])
            return traces

        monkeypatch.setattr(qqmems.cli, "acs_run", recording)
        code, _, _ = run(["acs", "--runs", "600", "--seed", "1", "-o", os.devnull,
                          "--trace-output", os.devnull], capsys)
        assert code == EXIT_OK and alive == [[], [256], [0, 256]]

    def test_purity_exactly_at_its_bound_passes_a_zero_tolerance(self, capsys, monkeypatch):
        # every final state reads the block's own bounds as its purity, so each
        # excess is exactly 0; the closed-form gate may still fail at tolerance 0
        bounds, draw = [], qqmems.cli.random_density_fixed_purity

        def remembering(P, seeds):
            bounds.append(P)
            return draw(P, seeds)

        monkeypatch.setattr(qqmems.cli, "random_density_fixed_purity", remembering)
        monkeypatch.setattr(qqmems.cli, "purity", lambda states: bounds[-1])
        code, _, err = run(["acs", "--runs", "3", "--seed", "1", "-o", os.devnull,
                            "--tolerance", "0"], capsys)
        assert len(bounds) == 1 and "purity above its bound" not in err
        assert code == EXIT_OK or (code == EXIT_CHECK and ": closed-form value " in err)

    def test_summary_and_trace_both_on_stdout(self, capsys):
        code, out, _ = run(["acs", "--runs", "2", "-o", "-", "--trace-output", "-"], capsys)
        assert code == EXIT_OK
        assert out.startswith("P,seed,best_value,") and "run_index,P,round,value\n" in out

    def test_round_value_off_the_trace_norm_is_check_failure(self, capsys, monkeypatch):
        exact = qqmems.acs.pi_objective
        monkeypatch.setattr(qqmems.acs, "pi_objective", lambda pi, rho: exact(pi, rho) + 1e-6)
        code, out, err = run(["acs", "--runs", "3", "--seed", "1"], capsys)
        assert code == EXIT_CHECK
        assert "check failure: acs@" in err and ": closed-form value" in err
        assert out == ""

    def test_impure_final_state_is_check_failure(self, capsys, monkeypatch):
        # each rho-step overshoots its purity bound by 0.005; the round values
        # stay the negativities of the states, so only the state gate sees it
        exact = qqmems.acs.vector_subproblem
        monkeypatch.setattr(qqmems.acs, "vector_subproblem", lambda a, P: exact(a, P + 0.005))
        code, out, err = run(["acs", "--runs", "3", "--seed", "1", "--p-max", "0.9"], capsys)
        assert code == EXIT_CHECK
        assert "check failure: acs@" in err and "purity above its bound" in err
        assert out == ""

    @pytest.mark.parametrize(
        "bad,named",
        [
            (np.triu(np.ones((6, 6))) / 6, "matrix is not Hermitian"),
            (np.eye(6) / 5, "trace is 1.2"),
            (np.diag([0.5, 0.5, 0.25, 0.0, 0.0, -0.25]), "smallest eigenvalue -2.500e-01"),
        ],
    )
    def test_final_state_that_is_not_a_state_is_check_failure(self, bad, named, capsys,
                                                              monkeypatch):
        acs_run, bad_P = qqmems.acs.acs_run, []

        def with_bad_run_1(P, rho0):
            runs = acs_run(P, rho0)
            runs[1].final_state = bad
            bad_P.append(runs[1].P)
            return runs

        monkeypatch.setattr(qqmems.cli, "acs_run", with_bad_run_1)
        code, out, err = run(["acs", "--runs", "3", "--seed", "1"], capsys)
        assert code == EXIT_CHECK
        assert err.startswith(f"check failure: acs@{bad_P[0]}: final state: {named}")
        assert out == ""

    def test_zero_runs_gives_header_only(self, tmp_path, capsys):
        out = tmp_path / "acs.csv"
        code, _, _ = run(["acs", "--runs", "0", "-o", str(out)], capsys)
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header[0] == "P" and rows == []


class TestProp1:
    def test_report_and_exit(self, tmp_path, capsys):
        out = tmp_path / "prop1.txt"
        code, _, _ = run(["prop1", "--count", "200", "--seed", "0", "-o", str(out)], capsys)
        assert code == EXIT_OK
        text = out.read_text()
        assert "violations (|brute-force - closed form| > 1e-12): 0" in text
        assert "(4, 6, 1, 5)" in text

    def test_zero_count_tests_nothing(self, capsys):
        code, out, _ = run(["prop1", "--count", "0"], capsys)
        assert code == EXIT_OK
        assert out.startswith("spectra tested: 0\n")
        assert "violations (|brute-force - closed form| > 1e-12): 0" in out

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["prop1", "--count", "100", "--seed", "9", "-o", str(a)], capsys)
        run(["prop1", "--count", "100", "--seed", "9", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_closed_form_off_the_brute_force_is_check_failure(self, capsys, monkeypatch):
        exact = qqmems.cli.n_x_lambda
        monkeypatch.setattr(qqmems.cli, "n_x_lambda", lambda lams: exact(lams) + 1e-9)
        code, out, err = run(["prop1", "--count", "20"], capsys)
        assert code == EXIT_CHECK
        assert err.startswith("check failure: ") and "spectra violated" in err
        assert "violations (|brute-force - closed form| > 1e-12): 20" in out


class TestState:
    def test_deg_lower_branch_spectrum(self, capsys):
        code, out, _ = run(["state", "--family", "deg", "--p", "0.3"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        h = np.sqrt(6 * 0.3 / 5 - 0.2)
        assert data["spectrum"][3] == pytest.approx((1 - 2 * h) / 6, abs=1e-12)
        assert data["purity"] == pytest.approx(0.3, abs=1e-12)

    def test_rank2_at_half_spectrum(self, capsys):
        code, out, _ = run(["state", "--family", "rank2", "--p", "0.5"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        np.testing.assert_allclose(data["spectrum"], [0.5, 0.5, 0, 0, 0, 0], atol=1e-12)

    def test_uniform_spectrum_family_zero_negativity(self, capsys):
        lam = ",".join(["0.16666666666666666"] * 5 + ["0.1666666666666667"])
        code, out, _ = run(["state", "--family", "spectrum", "--spectrum", lam], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["negativity"] == 0.0

    def test_missing_arguments_are_usage_errors(self, capsys):
        assert run(["state", "--family", "deg"], capsys)[0] == EXIT_USAGE
        assert run(["state", "--family", "nope", "--p", "0.5"], capsys)[0] == EXIT_USAGE
        assert run(["state", "--family", "rank2", "--p", "0.2"], capsys)[0] == EXIT_USAGE


class TestConfigAndErrors:
    @pytest.mark.parametrize(
        "args,named",
        [
            (["tgx2", "--p-min", "0.3"], "purity 0.3 outside rank-2 domain"),
            (["certify", "--theorem", "rank2", "--p-min", "0.4", "--p-steps", "1"],
             "purity 0.4 outside rank-2 domain"),
            (["gap", "--p-min", "0.1"], "purity 0.1 outside degenerate domain"),
            (["acs", "--p-min", "0.1"], "acs purity window [0.1, 0.99]"),
            (["acs", "--p-min", "0.3", "--p-max", "0.3"],
             "acs purity window needs p_min < p_max, got [0.3, 0.3]"),
            (["acs", "--p-min", "0.5", "--p-max", "0.3"],
             "acs purity window needs p_min < p_max, got [0.5, 0.3]"),
            (["tgx2", "--restarts", "0"], "restarts must be >= 1"),
            (["state", "--family", "deg", "--p", "0.2"], "purity 0.2 outside degenerate domain"),
            (["prop1", "--seed", "-2"], "seed must be >= 0, got -2"),
            (["state", "--family", "deg", "--p", "0.3", "--tolerance", "nan"],
             "tolerance must be finite and >= 0, got nan"),
            (["state", "--family", "deg", "--p", "0.3", "--tolerance", "-1"],
             "tolerance must be finite and >= 0, got -1.0"),
            (["certify", "--tolerance", "inf"], "tolerance must be finite and >= 0, got inf"),
            (["curves", "--p-min=nan", "--p-steps", "1"], "--p-min must be finite, got nan"),
            (["curves", "--p-min=-inf", "--p-steps", "1"], "--p-min must be finite, got -inf"),
            (["curves", "--p-max", "nan", "--p-steps", "1"], "--p-max must be finite, got nan"),
            (["gap", "--p-max", "inf"], "--p-max must be finite, got inf"),
            (["tgx2", "--p-min", "nan"], "--p-min must be finite, got nan"),
            (["state", "--family", "spectrum", "--spectrum", "0.5,0.5,0,0,0,0", "--p", "0.3"],
             "--family spectrum ignores --p"),
            (["state", "--family", "rank2", "--p", "0.7", "--spectrum", "0.5,0.5,0,0,0,0"],
             "--family rank2 ignores --spectrum"),
            (["curves", "--p-steps", "0"], "p_steps must be >= 1, got 0"),
            (["curves", "--p-min", "0.6", "--p-max", "0.5", "--p-steps", "1"],
             "purity grid needs p_min <= p_max"),
            (["curves", "--p-min", "0.5", "--p-max", "0.5", "--p-steps", "3"],
             "purity grid needs p_min < p_max, got [0.5, 0.5]"),
            (["curves", "--p-max", "1", "--p-steps", "2"], "purity grid upper end 1.0 must be < 1"),
            (["acs", "--runs", "-1"], "runs must be >= 0, got -1"),
            (["prop1", "--count", "-1"], "count must be >= 0, got -1"),
            (["state", "--family", "spectrum"], "requires --spectrum"),
            (["state", "--family", "spectrum", "--spectrum", "0.5,0.5"], "spectrum must have shape"),
        ],
    )
    def test_rejected_input_is_usage_error_naming_it(self, args, named, capsys):
        code, out, err = run(args, capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: ") and named in err
        assert out == ""

    @pytest.mark.parametrize(
        "name,args",
        [
            ("negativity", ["curves", "--p-steps", "3"]),
            ("construct_spectrum_xmems", _SPECTRUM_STATE),
            ("n_x_lambda", _SPECTRUM_STATE),
        ],
    )
    def test_internal_value_error_is_not_a_usage_error(self, name, args, capsys, monkeypatch):
        def broken(_):
            raise ValueError("internal bug")

        monkeypatch.setattr(f"qqmems.cli.{name}", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(args)
        assert "usage error" not in capsys.readouterr().err

    def test_zero_tolerance_is_not_a_usage_error(self, capsys):
        code, _, err = run(["state", "--family", "rank2", "--p", "0.75", "--tolerance", "0"],
                           capsys)
        assert code != EXIT_USAGE and "usage error" not in err

    def test_each_subcommand_takes_the_flags_it_reads(self):
        grid = {"--p-min", "--p-max", "--p-steps", "--tolerance"}
        expected = {
            "curves": grid,
            "gap": grid,
            "certify": grid | {"--theorem"},
            "tgx2": grid | {"--restarts"},
            "tgx3": grid | {"--restarts"},
            "acs": {"--p-min", "--p-max", "--runs", "--tolerance", "--trace-output"},
            "prop1": {"--count"},
            "state": {"--family", "--p", "--spectrum", "--tolerance"},
        }
        common = {"-h", "--help", "--seed", "-o", "--output"}
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sub.choices.keys() == expected.keys()
        for name, parser in sub.choices.items():
            flags = {opt for action in parser._actions for opt in action.option_strings}
            assert flags == expected[name] | common, name

    @pytest.mark.parametrize(
        "args",
        [
            ["curves", "--restarts", "0"],
            ["curves", "--trace-output", "/nonexistent/x.csv"],
            ["acs", "--p-steps", "0"],
            ["prop1", "--p-min", "5"],
            ["state", "--family", "deg", "--p", "0.3", "--runs", "3"],
            # the single-purity form of certify is its grid; flags are spelled in full
            ["certify", "--theorem", "rank2", "--p", "0.5"],
            ["certify", "--p", "0.5"],
            ["curves", "--p-st", "2"],
            ["acs", "--ru", "2"],
            ["tgx2", "--p-steps", "1", "--rest", "2"],
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, args, capsys):
        code, out, err = run(args, capsys)
        assert code == EXIT_USAGE
        assert err.startswith("usage error: unrecognized arguments: ")
        assert out == ""

    def test_missing_subcommand(self, capsys):
        assert run([], capsys)[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == EXIT_USAGE

    def test_bad_grid(self, capsys):
        assert run(["curves", "--p-min", "0.8", "--p-max", "0.5"], capsys)[0] == EXIT_USAGE

    def test_io_error(self, capsys):
        code, _, err = run(["curves", "--p-min", "0.5", "--p-max", "0.6", "--p-steps", "2",
                            "-o", "/nonexistent-dir/x.csv"], capsys)
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_device_target_is_written_in_place(self, capsys):
        code, out, _ = run(["curves", "--p-steps", "5", "-o", os.devnull], capsys)
        assert code == EXIT_OK and out == ""
        code, out, _ = run(["acs", "--runs", "2", "--trace-output", os.devnull], capsys)
        assert code == EXIT_OK
        assert out.count("\n") == 3 and out.startswith("P,seed,best_value,")

    def test_directory_target_is_io_error_and_left_alone(self, tmp_path, capsys):
        code, _, err = run(["curves", "--p-steps", "2", "-o", str(tmp_path)], capsys)
        assert code == EXIT_IO and "i/o error" in err
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []
