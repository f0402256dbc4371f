"""The output checkers accept real CLI outputs and reject tampered ones.

Run with `python3 -m pytest perfbench/tests`.
"""

import contextlib
import io
import os

import pytest

import checks
from workloads import ACS_TRACE_PATH, Command, commands

SEED = 3


def _run(cmd):
    import qqmems.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qqmems.cli.main(list(cmd.argv))
    trace = None
    if "--trace-output" in cmd.argv:
        with open(ACS_TRACE_PATH, "rb") as fh:
            trace = fh.read()
    return code, out.getvalue().encode(), trace


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of the closed_form and acs_sweep commands, and of small
    tgx2/tgx3 searches, produced in process."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("run"))
    os.makedirs(os.path.dirname(ACS_TRACE_PATH))
    try:
        cmds = commands("closed_form", SEED) + commands("acs_sweep", SEED)
        cmds += [
            Command("tgx2", "tgx2", ("tgx2", "--p-steps", "2", "--restarts", "8", "--seed", "1"), 2),
            Command("tgx3", "tgx3", ("tgx3", "--p-steps", "1", "--restarts", "4", "--seed", "1"), 1),
        ]
        return {cmd.argv: (cmd, *_run(cmd)) for cmd in cmds}
    finally:
        os.chdir(cwd)


def _by_kind(outputs, kind):
    return next(v for v in outputs.values() if v[0].kind == kind)


def test_checkers_accept_real_outputs(outputs):
    for cmd, code, stdout, trace in outputs.values():
        verdict = checks.check(cmd, code, stdout, trace)
        assert verdict.errors == [], cmd.argv
        assert verdict.failed == 0
        assert verdict.attempted == (cmd.rows if cmd.kind in ("tgx2", "tgx3", "acs") else 1)


def test_every_closed_form_command_is_checked(outputs):
    kinds = {cmd.kind for cmd, *_ in outputs.values()}
    assert {"state", "curves", "gap", "certify", "prop1", "acs", "tgx2", "tgx3"} <= kinds


def test_rejects_curves_cell_shifted_by_1e_9(outputs):
    cmd, code, stdout, _ = _by_kind(outputs, "curves")
    lines = stdout.decode().split("\n")
    cells = lines[1500].split(",")
    cells[3] = repr(float(cells[3]) + 1e-9)
    lines[1500] = ",".join(cells)
    verdict = checks.check(cmd, code, "\n".join(lines).encode())
    assert verdict.failed == 1 and verdict.errors


def test_rejects_prop1_report_with_one_violation(outputs):
    cmd, code, stdout, _ = _by_kind(outputs, "prop1")
    text = stdout.decode()
    assert "e-12): 0\n" in text
    verdict = checks.check(cmd, code, text.replace("e-12): 0\n", "e-12): 1\n").encode())
    assert verdict.failed == 1 and verdict.errors


def test_acs_row_at_deviation_minus_0_2_is_not_solved(outputs):
    cmd, code, stdout, trace = _by_kind(outputs, "acs")
    base = checks.check(cmd, code, stdout, trace)
    lines = stdout.decode().split("\n")
    header = lines[0].split(",")
    row = 200  # beyond the traced runs, so only the summary changes
    cells = lines[row].split(",")
    ref = float(cells[header.index("n_deg_reference")])
    cells[header.index("best_value")] = repr(ref - 0.2)
    cells[header.index("deviation")] = repr((ref - 0.2) - ref)
    lines[row] = ",".join(cells)
    verdict = checks.check(cmd, code, "\n".join(lines).encode(), trace)
    assert verdict.solved == base.solved - 1
    assert verdict.missed == base.missed + 1


def test_acs_row_whose_deviation_disagrees_with_its_values_fails(outputs):
    cmd, code, stdout, trace = _by_kind(outputs, "acs")
    lines = stdout.decode().split("\n")
    header = lines[0].split(",")
    cells = lines[200].split(",")
    cells[header.index("deviation")] = "-0.2"
    lines[200] = ",".join(cells)
    verdict = checks.check(cmd, code, "\n".join(lines).encode(), trace)
    assert verdict.failed == 1 and verdict.errors


def test_rejects_acs_excess_over_the_ceiling(outputs):
    cmd, code, stdout, trace = _by_kind(outputs, "acs")
    lines = stdout.decode().split("\n")
    header = lines[0].split(",")
    cells = lines[300].split(",")
    ref = float(cells[header.index("n_deg_reference")])
    cells[header.index("best_value")] = repr(ref + 1e-6)
    cells[header.index("deviation")] = repr((ref + 1e-6) - ref)
    lines[300] = ",".join(cells)
    verdict = checks.check(cmd, code, "\n".join(lines).encode(), trace)
    assert verdict.failed == 1 and verdict.errors


def test_rejects_tgx3_gap_above_1e_8(outputs):
    cmd, code, stdout, _ = _by_kind(outputs, "tgx3")
    lines = stdout.decode().split("\n")
    cells = lines[1].split(",")
    best, ref = float(cells[1]), float(cells[2])
    cells[1] = repr(best - 1e-7)
    cells[3] = repr((best - 1e-7) - ref)
    lines[1] = ",".join(cells)
    verdict = checks.check(cmd, code, "\n".join(lines).encode())
    assert verdict.failed == 1 and verdict.errors


def test_rejects_state_with_wrong_negativity(outputs):
    cmd, code, stdout, _ = _by_kind(outputs, "state")
    text = stdout.decode()
    import json

    rec = json.loads(text)
    rec["negativity"] += 1e-9
    verdict = checks.check(cmd, code, json.dumps(rec).encode())
    assert verdict.failed == 1 and verdict.errors


@pytest.mark.parametrize("kind", ["curves", "tgx2", "acs"])
def test_nonzero_exit_fails_every_operation(outputs, kind):
    cmd, _, stdout, trace = _by_kind(outputs, kind)
    verdict = checks.check(cmd, 2, stdout, trace)
    assert verdict.failed == verdict.attempted and verdict.errors


def test_truncated_output_counts_missing_rows_as_failed(outputs):
    cmd, code, stdout, _ = _by_kind(outputs, "tgx2")
    text = stdout.decode()
    verdict = checks.check(cmd, code, text[: text.index("\n", text.index("\n") + 1) + 1].encode())
    assert verdict.failed == 1 and verdict.errors


def test_garbage_output_is_a_failure_not_a_crash(outputs):
    for kind in ("curves", "certify", "state", "acs"):
        cmd, code, _, trace = _by_kind(outputs, kind)
        verdict = checks.check(cmd, code, b"not, an, output\n", trace)
        assert verdict.failed == verdict.attempted and verdict.errors
