"""End-to-end and per-layer benchmark of the `qqmems` command-line interface.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere; the checkout root is the parent of this directory and the
package is loaded from its `src/`.  Workloads are listed in `workloads.py`.

`--trace 0`, the end-to-end run: each command is a fresh `python -m
qqmems.cli` process, one at a time (closed loop, one client), so interpreter
start and import are included.  The workload's command list is repeated
until `--seconds` have passed and each metric is the median over those
iterations.  `setup_s` is the median of several fresh `import qqmems.cli`
processes after one warm-up.

`--trace 1`, the traced run: the same argv lists go through
`qqmems.cli.main` in this process, alternately without and with the span
wrappers of `tracing.py`, again until `--seconds` have passed.  Layer metrics
come from the traced passes, import times from `python -X importtime`.

Every output is checked by `checks.py`.  The report goes to stdout; its last
line is one JSON object with `correct`, `attempted`, `failed` and the metrics
listed in BENCHMARK.json.  Spans and a full result record are written under
`.perfbench_work/` in the checkout.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import ACS_TRACE_PATH, WHY, commands  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

# The metrics of the last JSON line, in the order of BENCHMARK.json.
E2E_JSON = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("s_per_solution", "s"),
    ("peak_rss_mb", "MB"),
    ("solved_share", "share"),
]
COMMAND_METRICS = ["state_s", "curves_s", "gap_s", "certify_s", "prop1_s", "tgx2_s", "tgx3_s", "acs_s"]

# Per-layer groups measured as (calls, busy seconds) over outermost spans.
GROUPS = {
    "linalg.negativity": ["linalg.negativity"],
    "linalg.eig_hermitian": ["linalg.eig_hermitian"],
    "linalg.random_density_fixed_purity": ["linalg.random_density_fixed_purity"],
    "purity_mems.construct": [
        "purity_mems.construct_rank2",
        "purity_mems.construct_rank3",
        "purity_mems.construct_deg",
        "spectrum.construct_spectrum_xmems",
    ],
    "purity_mems.verify_certificate": ["purity_mems.verify_certificate"],
    "spectrum.best_sequence_bruteforce": ["spectrum.best_sequence_bruteforce"],
    "tgx.maximize": ["tgx.maximize_tgx2", "tgx.maximize_tgx3"],
    "acs.acs_run": ["acs.acs_run"],
    "acs.pi_step": ["acs.pi_step"],
    "acs.rho_step": ["acs.rho_step"],
    "acs.vector_subproblem": ["acs.vector_subproblem"],
}
LAYER_JSON = (
    [("import.total_s", "s"), ("import.scipy_s", "s"), ("import.qqmems_self_s", "s")]
    + [("cli.self_s", "s"), ("cli.out_bytes", "bytes")]
    + [(f"{g}.{k}", u) for g in GROUPS for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [("acs.rounds", "count"), ("acs.trace_rerun_s", "s")]
)
# Reported in the text only: ratios undefined on workloads that make no such
# call, counters from optional hooks, and the tracing overhead.
LAYER_TEXT = [
    ("spectrum.spectra_per_s", "1/s"),
    ("tgx.s_per_purity", "s"),
    ("tgx.nfev", "count"),
    ("tgx.nfev_per_purity", "count"),
    ("tgx.restarts", "count"),
    ("acs.s_per_round", "s"),
    ("acs.hit_ratio", "share"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
]


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env():
    """The caller's environment without QQMEMS_* settings, loading ./src."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("QQMEMS_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def preflight():
    """Check that a fresh interpreter imports qqmems.cli from this checkout."""
    if not (SRC / "qqmems" / "cli.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'qqmems' / 'cli.py'} is missing")
    code, _, _ = spawn(
        [sys.executable, "-c", "import sys, qqmems.cli; sys.stdout.write(qqmems.cli.__file__)"],
        WORK / "preflight.out",
        WORK / "preflight.err",
    )
    where = (WORK / "preflight.out").read_text()
    if code != 0 or Path(where).resolve() != (SRC / "qqmems" / "cli.py").resolve():
        detail = (WORK / "preflight.err").read_text()[-500:]
        raise SetupError(f"cannot import qqmems.cli from {SRC} (exit {code}, got {where!r}): {detail}")


def measure_setup():
    times = []
    for i in range(SETUP_REPEATS):
        code, seconds, _ = spawn([sys.executable, "-c", "import qqmems.cli"], WORK / "setup.out", WORK / "setup.err")
        if code != 0:
            raise SetupError(f"import qqmems.cli failed: {(WORK / 'setup.err').read_text()[-500:]}")
        times.append(seconds)
    return times


def parse_importtime(text):
    """(total, scipy, qqmems) self times in seconds from -X importtime output."""
    total = scipy_s = own = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue  # the header line
        self_s, name = int(parts[0]) * 1e-6, parts[2]
        total += self_s
        if name == "scipy" or name.startswith("scipy."):
            scipy_s += self_s
        if name == "qqmems" or name.startswith("qqmems."):
            own += self_s
    return total, scipy_s, own


def measure_importtime():
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        argv = [sys.executable, "-X", "importtime", "-c", "import qqmems.cli"]
        code, _, _ = spawn(argv, WORK / "importtime.out", WORK / "importtime.err")
        if code != 0:
            raise SetupError("python -X importtime -c 'import qqmems.cli' failed")
        samples.append(parse_importtime((WORK / "importtime.err").read_text()))
    return {
        name: statistics.median(s[k] for s in samples)
        for k, name in enumerate(("import.total_s", "import.scipy_s", "import.qqmems_self_s"))
    }


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------


def sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def read_trace_output(cmd):
    if "--trace-output" not in cmd.argv:
        return None
    path = ROOT / ACS_TRACE_PATH
    return path.read_bytes() if path.is_file() else None


def clear_outputs():
    (ROOT / ACS_TRACE_PATH).unlink(missing_ok=True)


class Tally:
    """Verdicts, artifact hashes and operation counts over a whole run."""

    def __init__(self):
        self.attempted = self.failed = self.missed = 0
        self.errors = []
        self.hashes = {}  # command index -> set of (stdout sha, trace sha)
        self.hits = self.runs = 0

    def add(self, index, cmd, code, stdout, trace):
        verdict = checks.check(cmd, code, stdout, trace)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.missed += verdict.missed
        self.errors.extend(verdict.errors)
        self.hashes.setdefault(index, set()).add((sha256(stdout), sha256(trace)))
        if cmd.kind == "acs":
            self.runs += verdict.attempted
            self.hits += verdict.solved


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def run_e2e(workload, seed, seconds):
    cmds = commands(workload, seed)
    setup = measure_setup()
    tally = Tally()
    iters = []
    deadline = time.perf_counter() + seconds
    while not iters or time.perf_counter() < deadline:
        clear_outputs()
        per_label, rss, results = {}, [], []
        t0 = time.perf_counter()
        for i, cmd in enumerate(cmds):
            argv = [sys.executable, "-m", "qqmems.cli", *cmd.argv]
            out = WORK / f"cmd{i}.out"
            code, dt, mb = spawn(argv, out, WORK / f"cmd{i}.err")
            per_label[cmd.label] = per_label.get(cmd.label, 0.0) + dt
            rss.append(mb)
            results.append((code, out.read_bytes(), read_trace_output(cmd)))
        wall = time.perf_counter() - t0
        before = (tally.attempted, tally.failed, tally.missed)
        for i, (cmd, (code, stdout, trace)) in enumerate(zip(cmds, results)):
            tally.add(i, cmd, code, stdout, trace)
        attempted, failed, missed = (a - b for a, b in zip((tally.attempted, tally.failed, tally.missed), before))
        solved = attempted - failed - missed
        iters.append(
            {
                "wall_s": wall,
                # a run with no solution is charged its whole wall time
                "s_per_solution": wall / max(solved, 1),
                "peak_rss_mb": max(rss),
                "solved_share": solved / attempted,
                "failed_share": (failed + missed) / attempted,
                **{f"{label}_s": t for label, t in per_label.items()},
            }
        )
    metrics = {"setup_s": statistics.median(setup)}
    for name in iters[0]:
        metrics[name] = statistics.median(it[name] for it in iters)
    units = dict(E2E_JSON, failed_share="share", **{m: "s" for m in COMMAND_METRICS})
    samples = {"setup_s": setup, **{name: [it[name] for it in iters] for name in iters[0]}}
    return metrics, units, samples, tally, len(iters)


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def run_inprocess(main, cmd):
    """One CLI call in this process; returns (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(cmd.argv))
        except Exception as exc:  # a crash is one failed command, not a failed benchmark
            code = f"uncaught {exc!r}"
    return code, out.getvalue().encode("utf-8")


def layer_metrics(tracer, acs_hits, acs_runs, out_bytes):
    """Per-layer metrics of one traced pass, and {metric: reason} for those
    that cannot be measured."""
    spans = tracer.spans
    selft = tracing.self_times(spans)
    m = {
        "cli.self_s": sum(t for s, t in zip(spans, selft) if s[tracing.NAME] == "cli.main"),
        "cli.out_bytes": out_bytes,
    }
    absent = {}
    for group, names in GROUPS.items():
        missing = [n for n in names if n in tracer.absent]
        if len(missing) == len(names):
            for k in ("calls", "busy_s"):
                absent[f"{group}.{k}"] = tracer.absent[names[0]]
            continue
        m[f"{group}.calls"], m[f"{group}.busy_s"] = tracing.busy(spans, names)
    sweep = {i for i, s in enumerate(spans) if s[tracing.NAME] == "acs.acs_sweep"}

    def under_sweep(i):
        p = spans[i][tracing.PARENT]
        while p >= 0 and p not in sweep:
            p = spans[p][tracing.PARENT]
        return p >= 0

    runs = tracing.outermost(spans, ["acs.acs_run"])
    m["acs.trace_rerun_s"] = sum(
        spans[i][tracing.END] - spans[i][tracing.START] for i in runs if not under_sweep(i)
    )
    for name in ("tgx.nfev", "tgx.restarts", "acs.rounds"):
        m[name] = tracer.counters.get(name, 0)
    if tracing.TGX_MINIMIZE in tracer.absent and "tgx.nfev" not in tracer.counters:
        absent["tgx.nfev"] = tracer.absent[tracing.TGX_MINIMIZE] + " and results carry no nfev"
        del m["tgx.nfev"]
    ratios = {
        "spectrum.spectra_per_s": ("spectrum.best_sequence_bruteforce.calls", "spectrum.best_sequence_bruteforce.busy_s"),
        "tgx.s_per_purity": ("tgx.maximize.busy_s", "tgx.maximize.calls"),
        "tgx.nfev_per_purity": ("tgx.nfev", "tgx.maximize.calls"),
        "acs.s_per_round": ("acs.acs_run.busy_s", "acs.rounds"),
    }
    for name, (num, den) in ratios.items():
        if num in absent or den in absent or num not in m or den not in m:
            absent[name] = f"{num} or {den} is absent"
        elif m[den] == 0:
            absent[name] = f"{den} is 0 on this workload"
        else:
            m[name] = m[num] / m[den]
    if acs_runs:
        m["acs.hit_ratio"] = acs_hits / acs_runs
    else:
        absent["acs.hit_ratio"] = "no acs runs on this workload"
    if "tgx.restarts" not in tracer.counters and m.get("tgx.maximize.calls"):
        absent["tgx.restarts"] = "maximize results carry no restarts_used"
        del m["tgx.restarts"]
    return m, absent


def run_pass(main, cmds, tracer=None):
    """The workload's commands through `main` in this process, under `tracer`
    if given; returns (seconds, [(exit code, stdout, trace output)])."""
    results = []
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, cmd in enumerate(cmds):
            clear_outputs()
            if tracer is None:
                code, stdout = run_inprocess(main, cmd)
            else:
                tracer.op = i
                code, stdout = tracer.span("cli.main", run_inprocess, main, cmd)
            results.append((code, stdout, read_trace_output(cmd)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, results


def run_traced(workload, seed, seconds):
    cmds = commands(workload, seed)
    imports = measure_importtime()
    sys.path.insert(0, str(SRC))
    import qqmems.cli

    tally = Tally()
    passes, untraced, traced = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        # alternate which pass goes first, so warm-up favours neither
        for mode in ("untraced", "traced") if len(passes) % 2 == 0 else ("traced", "untraced"):
            tracer = tracing.Tracer() if mode == "traced" else None
            elapsed, results = run_pass(qqmems.cli.main, cmds, tracer)
            hits, runs = tally.hits, tally.runs
            for i, (cmd, (code, stdout, trace)) in enumerate(zip(cmds, results)):
                tally.add(i, cmd, code, stdout, trace)
            if tracer is None:
                untraced.append(elapsed)
                continue
            traced.append(elapsed)
            out_bytes = sum(len(stdout) + len(trace or b"") for _, stdout, trace in results)
            metrics, absent = layer_metrics(tracer, tally.hits - hits, tally.runs - runs, out_bytes)
            passes.append(metrics)
            last = tracer
    metrics = dict(imports)
    for name in passes[-1]:
        metrics[name] = statistics.median(p[name] for p in passes if name in p)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    absent.update({k: v for k, v in last.absent.items() if k not in GROUPS})
    last.dump(WORK / f"spans-{workload}-seed{seed}.jsonl")
    units = dict(LAYER_JSON + LAYER_TEXT)
    return metrics, units, absent, tally, len(passes)


# ---------------------------------------------------------------------------
# Provenance and report
# ---------------------------------------------------------------------------


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_sha():
    """HEAD of the checkout, read from its own .git directory only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, workloads):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha() or "absent: the checkout is not a git work tree",
        "seed": seed,
        "argv": {w: [list(c.argv) for c in commands(w, seed)] for w in workloads},
    }


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload, mode, metrics, units, samples, absent, tally, iterations):
    print(f"== {workload} ({WHY[workload]})")
    if mode == "e2e":
        print(f"   end-to-end: closed loop, one client, {iterations} iteration(s); median [min, max]")
    else:
        print(f"   traced: {iterations} traced pass(es) in process; median over passes")
    for name, unit in units.items():
        if name in metrics:
            spread = ""
            if samples and name in samples:
                spread = f"  [{_fmt(min(samples[name]))}, {_fmt(max(samples[name]))}] n={len(samples[name])}"
            print(f"   {name:<42} {_fmt(metrics[name]):>14} {unit}{spread}")
        elif name in absent:
            print(f"   {name:<42} {'absent':>14}  ({absent[name]})")
    fs = (tally.failed + tally.missed) / tally.attempted
    print(f"   operations: {tally.attempted} attempted, {tally.failed} failed, {tally.missed} missed the accuracy band"
          f" (failed_share {fs:.6g})")
    for index in sorted(tally.hashes):
        digests = sorted(tally.hashes[index], key=str)
        stable = "identical on every iteration" if len(digests) == 1 else f"{len(digests)} DIFFERENT digests"
        out, trace = digests[0]
        extra = f", trace-output sha256 {trace}" if trace else ""
        print(f"   command {index} stdout sha256 {out}{extra} ({stable})")
    for err in tally.errors[:20]:
        print(f"   CHECK FAILED: {err}")
    if len(tally.errors) > 20:
        print(f"   ... {len(tally.errors) - 20} more check failures")


def run_one(workload, seed, seconds, trace):
    if trace:
        metrics, units, absent, tally, n = run_traced(workload, seed, seconds)
        samples = None
        json_names = LAYER_JSON
    else:
        metrics, units, samples, tally, n = run_e2e(workload, seed, seconds)
        absent = {}
        json_names = E2E_JSON
    report(workload, "traced" if trace else "e2e", metrics, units, samples, absent, tally, n)
    record = {
        "workload": workload,
        "trace": trace,
        "metrics": metrics,
        "absent": absent,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "missed": tally.missed,
        "errors": tally.errors,
        "sha256": {i: sorted(h, key=str) for i, h in tally.hashes.items()},
    }
    json_metrics = {n: {"value": metrics[n], "unit": u} for n, u in json_names if n in metrics}
    return record, json_metrics, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WHY, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WHY) if args.workload == "all" else [args.workload]
    os.chdir(ROOT)
    try:
        WORK.mkdir(exist_ok=True)
        preflight()
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args.seed, workloads)
    print("provenance: " + json.dumps(prov))
    records, all_metrics = [], {}
    correct, attempted, failed = True, 0, 0
    for w in workloads:
        try:
            record, json_metrics, tally = run_one(w, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        records.append(record)
        prefix = "" if len(workloads) == 1 else f"{w}."
        all_metrics.update({prefix + k: v for k, v in json_metrics.items()})
        correct = correct and not tally.errors
        attempted += tally.attempted
        failed += tally.failed
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"provenance": prov, "records": records}, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
