"""Output checkers, independent of the CLI's own `_validated` gate.

Each checker takes one command's exit code and output bytes and returns a
`Verdict`.  Closed forms are recomputed here with numpy; a state's negativity
is recomputed from its printed matrix.  A failed check is counted, never
raised, so one bad output cannot abort a benchmark run.

Operations, the unit of `attempted`: one CLI process for the closed-form
commands, one purity row for `tgx2`/`tgx3`, one run row for `acs`.  An ACS row
that is well formed and below the ceiling but more than 1e-6 under it is a
*miss* (the search stalled), not a failure; misses still count against the
workload's solved share.  `errors` lists every hard failure, so a run is
correct exactly when no verdict has any.
"""

import csv
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

# Tolerances of the binding acceptance criteria 8, 9 and 10.
CURVE_TOL = 1e-12
TGX2_MIN_GAP = -1e-10
TGX3_MAX_ABS_GAP = 1e-8
ACS_BAND = 1e-6
ACS_MAX_EXCESS = 1e-8
ACS_MIN_HIT_SHARE = 0.9
STATE_TOL = 1e-10
ARITH_TOL = 1e-14


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    missed: int = 0
    errors: list = field(default_factory=list)

    @property
    def solved(self):
        return self.attempted - self.failed - self.missed


# ---------------------------------------------------------------------------
# Closed forms, recomputed from the paper's formulas
# ---------------------------------------------------------------------------


def n_rank2(P):
    return 0.5 * (1.0 + np.sqrt(2.0 * P - 1.0))


def n_rank3(P):
    return (1.0 + np.sqrt(6.0 * P - 2.0)) / 3.0


def n_deg(P):
    if P < 3.0 / 8.0:
        return (-1.0 + 5.0 * np.sqrt(6.0 * P / 5.0 - 0.2)) / 3.0
    return n_rank3(P)


def n_comparison(P):
    """The literature comparison curve; None where its radicand is negative."""
    if P >= 3.0 / 8.0:
        return n_rank3(P)
    e = np.sqrt(40.0 * P / 7.0 - 8.0 / 7.0)
    radicand = (-1.0 + e) ** 2 - 6.25 * e * e
    if radicand < 0.0:
        return None
    return 0.2 * (-1.0 + e + np.sqrt(radicand))


def n_spectrum(lam):
    """Maximal X-state negativity for a descending spectrum, floored at 0."""
    l1, _, _, l4, l5, l6 = lam
    return max(0.0, -l4 - l6 + np.sqrt((l4 - l6) ** 2 + (l1 - l5) ** 2))


def pt_negativity(rho):
    """Trace norm of the qubit partial transpose, minus 1 (basis |ab> -> 3a+b)."""
    pt = rho.reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6)
    return float(np.sum(np.abs(np.linalg.eigvalsh(pt))) - 1.0)


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _flag(argv, name):
    argv = list(argv)
    return argv[argv.index(name) + 1] if name in argv else None


def _cell(row, key):
    """Float value of a CSV cell, None when blank."""
    raw = row[key]
    return None if raw == "" else float(raw)


def _csv_rows(text, columns):
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in columns if c not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"missing columns {missing}")
    return list(reader)


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Per-command checkers
# ---------------------------------------------------------------------------


def _check_state(cmd, text):
    rec = json.loads(text)
    family = _flag(cmd.argv, "--family")
    if rec["family"] != family:
        return [f"family {rec['family']!r}, expected {family!r}"]
    rho = np.array(rec["matrix_real"], dtype=float) + 1j * np.array(rec["matrix_imag"], dtype=float)
    errs = []
    if rho.shape != (6, 6):
        return [f"matrix shape {rho.shape}"]
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12 or abs(np.trace(rho) - 1.0) > 1e-12:
        errs.append("matrix is not a unit-trace Hermitian matrix")
    lam = np.sort(np.array(rec["spectrum"], dtype=float))[::-1]
    if np.max(np.abs(np.sort(np.linalg.eigvalsh(rho))[::-1] - lam)) > STATE_TOL:
        errs.append("matrix eigenvalues differ from the printed spectrum")
    if family == "spectrum":
        given = np.array([float(x) for x in _flag(cmd.argv, "--spectrum").split(",")])
        if np.max(np.abs(lam - given)) > STATE_TOL:
            errs.append("printed spectrum differs from the requested one")
        expected = n_spectrum(given)
    else:
        P = float(_flag(cmd.argv, "--p"))
        if abs(float(lam @ lam) - P) > STATE_TOL:
            errs.append(f"spectrum purity {float(lam @ lam)!r}, expected {P!r}")
        expected = {"rank2": n_rank2, "rank3": n_rank3, "deg": n_deg}[family](P)
    value = rec["negativity"]
    if abs(value - expected) > CURVE_TOL:
        errs.append(f"negativity {value!r}, closed form {expected!r}")
    if abs(value - pt_negativity(rho)) > STATE_TOL:
        errs.append(f"negativity {value!r}, trace norm of the matrix {pt_negativity(rho)!r}")
    if abs(rec["purity"] - float(np.real(np.trace(rho @ rho)))) > 1e-12:
        errs.append("printed purity differs from tr rho^2")
    return errs


def _check_curves(cmd, text):
    rows = _csv_rows(text, ["P", "N2", "N3", "Ndeg"])
    errs = _row_count(cmd, rows)
    for i, row in enumerate(rows):
        P = float(row["P"])
        want = (
            n_rank2(P) if P >= 0.5 else None,
            n_rank3(P) if P >= 1.0 / 3.0 else None,
            n_deg(P) if P > 0.2 else None,
        )
        for key, w in zip(("N2", "N3", "Ndeg"), want):
            if not _close(_cell(row, key), w, CURVE_TOL):
                errs.append(f"row {i} {key} = {row[key]!r} at P={P!r}, closed form {w!r}")
    return errs


def _check_gap(cmd, text):
    rows = _csv_rows(text, ["P", "Ndeg", "Nhed", "diff", "reason"])
    errs = _row_count(cmd, rows)
    for i, row in enumerate(rows):
        P = float(row["P"])
        nd, nh, diff = _cell(row, "Ndeg"), _cell(row, "Nhed"), _cell(row, "diff")
        want_nh = n_comparison(P)
        if not _close(nd, n_deg(P), CURVE_TOL):
            errs.append(f"row {i} Ndeg = {row['Ndeg']!r} at P={P!r}, closed form {n_deg(P)!r}")
        if not _close(nh, want_nh, CURVE_TOL):
            errs.append(f"row {i} Nhed = {row['Nhed']!r} at P={P!r}, closed form {want_nh!r}")
        elif nh is None and (diff is not None or not row["reason"]):
            errs.append(f"row {i}: undefined comparison value without a reason")
        elif nh is not None and not _close(diff, nd - nh, ARITH_TOL):
            errs.append(f"row {i} diff = {row['diff']!r}, expected Ndeg - Nhed")
    return errs


def _check_certify(cmd, text):
    rec = json.loads(text)
    errs = []
    if rec.get("all_verified") is not True:
        errs.append("all_verified is not true")
    reports = rec.get("reports", [])
    if rec.get("count") != cmd.rows or len(reports) != cmd.rows:
        errs.append(f"{rec.get('count')} reports, expected {cmd.rows}")
    bad = [(r.get("theorem_id"), r.get("P")) for r in reports if r.get("verified") is not True]
    if bad:
        errs.append(f"unverified certificates at {bad[:5]}")
    return errs


_PROP1_LINE = re.compile(r"^violations \(.*\): (\d+)$", re.M)


def _check_prop1(cmd, text):
    errs = []
    if f"spectra tested: {cmd.rows}\n" not in text:
        errs.append(f"report does not say {cmd.rows} spectra were tested")
    m = _PROP1_LINE.search(text)
    if m is None:
        errs.append("no violations line")
    elif int(m.group(1)) != 0:
        errs.append(f"{m.group(1)} violations of the optimal assignment")
    return errs


def _row_count(cmd, rows):
    if len(rows) != cmd.rows:
        return [f"{len(rows)} rows, expected {cmd.rows}"]
    return []


def _check_tgx(cmd, text):
    """Row-level checks; returns (process errors, {row index: error})."""
    rows = _csv_rows(text, ["P", "tgx_max", "x_reference", "gap"])
    curve = n_rank2 if cmd.kind == "tgx2" else n_rank3
    bad = {}
    for i, row in enumerate(rows[: cmd.rows]):
        P, best, ref, gap = (float(row[k]) for k in ("P", "tgx_max", "x_reference", "gap"))
        if abs(ref - curve(P)) > CURVE_TOL:
            bad[i] = f"row {i} x_reference {ref!r}, closed form {curve(P)!r}"
        elif abs(gap - (best - ref)) > ARITH_TOL:
            bad[i] = f"row {i} gap {gap!r} is not tgx_max - x_reference"
        elif cmd.kind == "tgx2" and not gap >= TGX2_MIN_GAP:
            bad[i] = f"row {i} rank-2 gap {gap!r} below {TGX2_MIN_GAP}"
        elif cmd.kind == "tgx3" and not abs(gap) <= TGX3_MAX_ABS_GAP:
            bad[i] = f"row {i} rank-3 |gap| {abs(gap)!r} above {TGX3_MAX_ABS_GAP}"
    return _row_count(cmd, rows), bad, rows


def _check_acs(cmd, text, trace_text):
    rows = _csv_rows(text, ["P", "best_value", "n_deg_reference", "deviation", "rounds"])
    bad, missed = {}, set()
    for i, row in enumerate(rows[: cmd.rows]):
        P, best, ref, dev = (float(row[k]) for k in ("P", "best_value", "n_deg_reference", "deviation"))
        if not (0.2 < P < 1.0):
            bad[i] = f"row {i} purity {P!r} outside (1/5, 1)"
        elif abs(ref - n_deg(P)) > CURVE_TOL:
            bad[i] = f"row {i} reference {ref!r}, closed form {n_deg(P)!r}"
        elif abs(dev - (best - ref)) > ARITH_TOL:
            bad[i] = f"row {i} deviation {dev!r} is not best_value - reference"
        elif dev > ACS_MAX_EXCESS:
            bad[i] = f"row {i} exceeds the proven ceiling by {dev!r}"
        elif not 1 <= int(row["rounds"]) <= 200:
            bad[i] = f"row {i} used {row['rounds']} rounds"
        elif abs(dev) > ACS_BAND:
            missed.add(i)
    errs = _row_count(cmd, rows)
    if rows and len(missed) > (1.0 - ACS_MIN_HIT_SHARE) * len(rows):
        errs.append(f"{len(missed)} of {len(rows)} runs miss the 1e-6 band (criterion 10 allows 10%)")
    if trace_text is None:
        errs.append("no trace output")
    else:
        errs.extend(_check_acs_trace(rows, trace_text, bad))
    return errs, bad, missed, rows


def _check_acs_trace(rows, trace_text, bad):
    """The round traces of the first runs: consecutive, monotone, and ending
    at the summary row's value."""
    trace = _csv_rows(trace_text, ["run_index", "P", "round", "value"])
    runs = {}
    for t in trace:
        runs.setdefault(int(t["run_index"]), []).append(t)
    errs = []
    if sorted(runs) != list(range(min(4, len(rows)))):
        errs.append(f"trace holds runs {sorted(runs)}, expected the first {min(4, len(rows))}")
    for idx, rounds in runs.items():
        if idx >= len(rows):
            continue
        values = [float(t["value"]) for t in rounds]
        if [int(t["round"]) for t in rounds] != list(range(len(rounds))):
            bad[idx] = f"trace of run {idx} skips rounds"
        elif np.min(np.diff(values), initial=0.0) < -1e-12:
            bad[idx] = f"trace of run {idx} decreases"
        elif any(float(t["P"]) != float(rows[idx]["P"]) for t in rounds):
            bad[idx] = f"trace of run {idx} is at another purity"
        elif abs(values[-1] - float(rows[idx]["best_value"])) > CURVE_TOL:
            bad[idx] = f"trace of run {idx} ends at {values[-1]!r}, summary says {rows[idx]['best_value']}"
    return errs


_PROCESS_CHECKERS = {
    "state": _check_state,
    "curves": _check_curves,
    "gap": _check_gap,
    "certify": _check_certify,
    "prop1": _check_prop1,
}


def check(cmd, returncode, stdout, trace=None):
    """Verdict on one command's outputs (bytes; `trace` is the ACS trace file)."""
    row_level = cmd.kind in ("tgx2", "tgx3", "acs")
    attempted = cmd.rows if row_level else 1
    if returncode != 0:
        return Verdict(attempted, failed=attempted, errors=[f"{cmd.label}: exit code {returncode}"])
    try:
        text = stdout.decode("utf-8")
        if not row_level:
            errs = _PROCESS_CHECKERS[cmd.kind](cmd, text)
            return Verdict(1, failed=int(bool(errs)), errors=[f"{cmd.label}: {e}" for e in errs])
        if cmd.kind == "acs":
            errs, bad, missed, rows = _check_acs(
                cmd, text, None if trace is None else trace.decode("utf-8")
            )
        else:
            errs, bad, rows = _check_tgx(cmd, text)
            missed = set()
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(attempted, failed=attempted, errors=[f"{cmd.label}: unparsable output: {exc!r}"])
    absent = max(0, cmd.rows - len(rows))
    errs = errs + list(bad.values())
    return Verdict(
        attempted,
        failed=len(bad) + absent,
        missed=len(missed - set(bad)),
        errors=[f"{cmd.label}: {e}" for e in errs],
    )
