"""The benchmark's workloads: the `qqmems` argv lists each one runs.

Every input a workload needs is drawn from the benchmark seed; the CLI itself
receives that seed only as `--seed`.  Each command is a `Command` whose
`label` names the end-to-end metric it adds to (`state` commands share one)
and whose `kind` selects its output checker in `checks.py`.
"""

from dataclasses import dataclass

import numpy as np

# Relative to the checkout root; the ACS round trace is the workload's
# second output beside stdout.
ACS_TRACE_PATH = ".perfbench_work/acs_trace.csv"


@dataclass(frozen=True)
class Command:
    label: str
    kind: str
    argv: tuple
    rows: int  # data rows (or reports, or spectra) the output must hold


# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "closed_form": "eight short CLI processes: import, closed forms, eigh oracle, 90-pair scan, writers; no optimizer",
    "tgx_search": "TGX Nelder-Mead searches, so optimizer changes show here and nowhere else",
    "acs_sweep": "alternate convex search with linalg as inner-loop eigensolver, plus a second trace output",
}


def _num(x):
    return repr(float(x))


def commands(workload, seed):
    """The argv lists of one iteration of `workload` at benchmark seed `seed`."""
    s = ["--seed", str(seed)]
    if workload == "closed_form":
        rng = np.random.default_rng(seed)
        p2 = rng.uniform(0.5, 0.99)
        p3 = rng.uniform(1.0 / 3.0, 0.99)
        pd = rng.uniform(0.21, 0.99)
        w = rng.exponential(size=6)
        lam = np.sort(w / w.sum())[::-1]
        return [
            Command("state", "state", ("state", "--family", "rank2", "--p", _num(p2), *s), 1),
            Command("state", "state", ("state", "--family", "rank3", "--p", _num(p3), *s), 1),
            Command("state", "state", ("state", "--family", "deg", "--p", _num(pd), *s), 1),
            Command(
                "state",
                "state",
                ("state", "--family", "spectrum", "--spectrum", ",".join(_num(x) for x in lam), *s),
                1,
            ),
            Command("curves", "curves", ("curves", "--p-steps", "2000", *s), 2000),
            Command("gap", "gap", ("gap", "--p-steps", "2000", *s), 2000),
            Command("certify", "certify", ("certify", "--p-steps", "200", *s), 600),
            Command("prop1", "prop1", ("prop1", "--count", "5000", *s), 5000),
        ]
    if workload == "tgx_search":
        return [
            Command("tgx2", "tgx2", ("tgx2", "--p-steps", "25", *s), 25),
            Command("tgx3", "tgx3", ("tgx3", "--p-steps", "10", *s), 10),
        ]
    if workload == "acs_sweep":
        return [
            Command("acs", "acs", ("acs", "--runs", "400", *s, "--trace-output", ACS_TRACE_PATH), 400),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")
