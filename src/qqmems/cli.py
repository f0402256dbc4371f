"""Command-line front end emitting deterministic CSV/JSON artifacts.

Subcommands map one-to-one onto the library's result families:

* curves   -- the three fixed-purity ceilings on a purity grid
* gap      -- triply-degenerate ceiling vs the literature comparison curve
* certify  -- numerical verification of the SDP optimality certificates
* tgx2     -- rank-2 TGX maximization vs the rank-2 X ceiling
* tgx3     -- rank-3 TGX maximization vs the rank-3 X ceiling
* acs      -- one row per alternate-convex-search run (optional round traces)
* prop1    -- brute-force fuzz of the optimal spectrum assignment
* state    -- one constructed state as a JSON record

Each subcommand accepts only the flags it reads, spelled in full, with the
defaults listed in `_COMMANDS`; any other flag is a usage error.  `--seed` and
`-o/--output` are common to all subcommands, so that one seed can be passed to
every command; the closed-form ones ignore it.  Numbers are written with 17
significant digits, comma-separated, LF line endings; undefined values become
empty cells with a populated reason column.

Exit codes: 0 success, 1 usage error (rejected caller input, such as a purity
outside a domain), 2 check failure, 3 I/O error; any other exception is a bug.
"""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .acs import acs_run
from .linalg import (
    MatrixError,
    check_density_matrix,
    negativity,
    purity,
    random_density_fixed_purity,
    random_spectrum,
)
from .purity_mems import (
    FAMILIES,
    THEOREMS,
    DomainError,
    hedemann_negativity,
    verify_certificate,
)
from .spectrum import (
    OPTIMAL_SEQUENCE,
    best_sequence_bruteforce,
    construct_spectrum_xmems,
    n_x_lambda,
    validate_spectrum,
)
from .tgx import maximize_tgx2, maximize_tgx3, tgx_matrix

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


class CheckError(Exception):
    pass


def _fmt(x):
    """One CSV cell: 17 significant digits, empty string for undefined."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _grid(cfg, fam):
    """The [p_min, p_max] purity grid with p_steps points; p_min defaults to
    the family's lo, or 1e-9 above it when the domain is open there."""
    for flag, value in (("--p-min", cfg.p_min), ("--p-max", cfg.p_max)):
        if value is not None and not np.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    lo = fam.lo + 1e-9 if fam.lo_open else fam.lo
    p_min = cfg.p_min if cfg.p_min is not None else lo
    p_max = cfg.p_max
    if cfg.p_steps < 1:
        raise UsageError(f"p_steps must be >= 1, got {cfg.p_steps}")
    if cfg.p_steps > 1 and not (p_min < p_max):
        raise UsageError(f"purity grid needs p_min < p_max, got [{p_min}, {p_max}]")
    if p_min > p_max:
        raise UsageError(f"purity grid needs p_min <= p_max, got [{p_min}, {p_max}]")
    if p_max >= 1.0:
        raise UsageError(f"purity grid upper end {p_max} must be < 1")
    return np.linspace(p_min, p_max, cfg.p_steps)


class _IOFailure(Exception):
    pass


@contextlib.contextmanager
def _output(*paths):
    """One stream per artifact path, stdout for "-"; any OSError becomes
    _IOFailure.

    A regular file (or a new one) is written to a temporary file next to it,
    and every target is replaced only once all streams are written, so a
    failed run leaves each target as it was.  Other existing paths, such as
    devices, are written in place.  `main` rejects two paths to one regular
    or new file before any work.
    """
    streams, pending, named = [], [], {}
    try:
        try:
            for i, path in enumerate(paths):
                if path in (None, "-"):
                    streams.append(sys.stdout)
                    continue
                target = os.path.realpath(path)
                if os.path.exists(target) and not os.path.isfile(target):
                    streams.append(open(target, "w", newline=""))
                else:
                    tmp = f"{target}.{os.getpid()}-{i}.tmp"
                    pending.append((tmp, target))
                    named[tmp] = path
                    streams.append(open(tmp, "x", newline=""))
            yield streams
        finally:
            for fh in streams:
                if fh is not sys.stdout:
                    fh.close()
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    except OSError as exc:
        name = named.get(exc.filename, exc.filename)
        raise _IOFailure(f"{exc.strerror}: {name}" if exc.strerror and name else str(exc))
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _write_csv(*tables):
    """Write (path, header, rows) tables through one _output."""
    with _output(*(path for path, _, _ in tables)) as streams:
        for fh, (_, header, rows) in zip(streams, tables):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(x) for x in row] for row in rows)


def _write_json(path, obj):
    with _output(path) as (fh,):
        fh.write(json.dumps(obj, indent=2) + "\n")


def _validated(values, matrices, tol, label):
    """Gate emitted negativities (one, or an (m,) array) against the generic
    trace-norm values of their states (one stacked eigvalsh); the first row off by
    more than `tol`, or NaN, raises CheckError named by `label(row)`."""
    flat = np.ravel(values)
    oracle = np.ravel(negativity(matrices))
    ok = np.abs(flat - oracle) <= tol
    if not np.all(ok):
        i = int(np.argmin(ok))
        value, ref = float(flat[i]), float(oracle[i])
        raise CheckError(
            f"{label(i)}: closed-form value {value!r} deviates from trace-norm "
            f"value {ref!r} by {abs(value - ref):.3e} (> {tol:g})"
        )
    return values


# Rows per stacked evaluation in every command: each block is evaluated,
# gated and formatted before the next, so only the rows outlive it and the
# working set does not grow with the grid, the spectra count or the runs.
_BLOCK = 256


def _blocks(values):
    for start in range(0, len(values), _BLOCK):
        yield values[start : start + _BLOCK]


def _gated_curves(P, families, tol):
    """(len(P), len(families)) table of the families' curves on purities P,
    and its in-domain mask; in-domain cells are gated in emission order."""
    inside = np.stack([fam.contains(P) for fam in families], axis=1)
    values = np.full(inside.shape, np.nan)
    states = np.zeros(inside.shape + (6, 6), dtype=complex)
    for col, fam in enumerate(families):
        m = inside[:, col]
        values[m, col] = fam.curve(P[m])
        states[m, col] = fam.construct(P[m]).to_matrix()
    rows, cols = np.nonzero(inside)
    _validated(
        values[inside], states[inside], tol, lambda i: f"{families[cols[i]].column}@{P[rows[i]]}"
    )
    return values, inside


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_curves(cfg):
    families = list(FAMILIES.values())
    rows = []
    for P in _blocks(_grid(cfg, FAMILIES["deg"])):
        values, inside = _gated_curves(P, families, cfg.tolerance)
        for p, vals, ins in zip(P, values, inside):
            rows.append((p, *(v if i else None for v, i in zip(vals, ins))))
    _write_csv((cfg.output, ["P", *(fam.column for fam in families)], rows))
    return EXIT_OK


def cmd_gap(cfg):
    deg = FAMILIES["deg"]
    rows = []
    for P in _blocks(_grid(cfg, deg)):
        # Ndeg on every grid point: outside its domain is a usage error.
        deg.check(P)
        values, _ = _gated_curves(P, [deg], cfg.tolerance)
        for p, nd, nh in zip(P, values[:, 0], hedemann_negativity(P)):
            if np.isnan(nh):
                rows.append((p, nd, None, None, "negative radicand"))
            else:
                rows.append((p, nd, nh, nd - nh, ""))
    _write_csv((cfg.output, ["P", "Ndeg", "Nhed", "diff", "reason"], rows))
    return EXIT_OK


def cmd_certify(cfg):
    theorems = (cfg.theorem,) if cfg.theorem else THEOREMS
    reports = [
        report
        for th in theorems
        for P in _blocks(_grid(cfg, FAMILIES[th]))
        for report in verify_certificate(th, P, tol=cfg.tolerance)
    ]
    ok = all(r.verified for r in reports)
    _write_json(
        cfg.output,
        {"all_verified": ok, "count": len(reports), "reports": [r.to_dict() for r in reports]},
    )
    if not ok:
        bad = [(r.theorem_id, r.P) for r in reports if not r.verified]
        raise CheckError(f"certificate verification failed at {bad}")
    return EXIT_OK


def _cmd_tgx(cfg, family, maximizer):
    fam = FAMILIES[family]
    rng = np.random.default_rng(cfg.seed)
    grid = _grid(cfg, fam)
    seeds = [rng.integers(2**63) for _ in grid]
    rows = []
    for block, block_seeds in zip(_blocks(grid), _blocks(seeds)):
        results = maximizer(block, restarts=cfg.restarts, rng=block_seeds)
        P = np.array([r.P for r in results])  # the purities searched, at most P_MAX
        best = _validated(
            np.array([r.best_value for r in results]),
            np.stack([tgx_matrix(r.best_params) for r in results]),
            cfg.tolerance,
            lambda i: f"tgx@{P[i]}",
        )
        ref = fam.curve(P)
        rows.extend(zip(P, best, ref, best - ref))
    _write_csv((cfg.output, ["P", "tgx_max", "x_reference", "gap"], rows))
    return EXIT_OK


def cmd_acs(cfg):
    p_min, p_max = cfg.p_min, cfg.p_max
    deg = FAMILIES["deg"]
    if not (deg.contains(p_min) and deg.contains(p_max)):
        raise UsageError(f"acs purity window [{p_min}, {p_max}] outside {deg.domain}")
    if not p_min < p_max:
        raise UsageError(f"acs purity window needs p_min < p_max, got [{p_min}, {p_max}]")
    if cfg.runs < 0:
        raise UsageError(f"runs must be >= 0, got {cfg.runs}")
    rng = np.random.default_rng(cfg.seed)
    purities = np.sort(rng.uniform(p_min, p_max, size=cfg.runs))
    seeds = [int(rng.integers(0, 2**31 - 1)) for _ in purities]
    rows, trace_rows = [], []
    for P, block_seeds in zip(_blocks(purities), _blocks(seeds)):
        runs = acs_run(P, random_density_fixed_purity(P, block_seeds))
        states = np.stack([run.final_state for run in runs])

        def label(i):
            return f"acs@{runs[i].P}"

        try:
            check_density_matrix(states)
        except MatrixError as exc:
            raise CheckError(f"{label(*exc.index)}: final state: {exc}")
        excess = purity(states) - P
        if not np.all(excess <= cfg.tolerance):
            i = int(np.argmin(excess <= cfg.tolerance))
            raise CheckError(f"{label(i)}: final state has purity above its bound by {excess[i]:.3e}")
        best = _validated(np.array([run.best_value for run in runs]), states, cfg.tolerance, label)
        if not rows:  # the trace: the first four runs, round by round
            trace_rows = [
                (i, run.P, r, v) for i, run in enumerate(runs[:4]) for r, v in enumerate(run.rounds)
            ]
        ref = deg.curve(P)
        rows += [
            (run.P, seed, run.best_value, n, dev, run.rounds_used, run.status)
            for run, seed, n, dev in zip(runs, block_seeds, ref, best - ref)
        ]
    tables = [
        (cfg.output, ["P", "seed", "best_value", "n_deg_reference", "deviation", "rounds", "status"], rows)
    ]
    if cfg.trace_output is not None:
        tables.append((cfg.trace_output, ["run_index", "P", "round", "value"], trace_rows))
    _write_csv(*tables)
    return EXIT_OK


def cmd_prop1(cfg):
    if cfg.count < 0:
        raise UsageError(f"count must be >= 0, got {cfg.count}")
    rng = np.random.default_rng(cfg.seed)
    violations = 0
    worst = 0.0
    for block in _blocks(range(cfg.count)):
        lams = random_spectrum(rng, count=len(block))
        _, brute = best_sequence_bruteforce(lams)
        dev = np.abs(brute - n_x_lambda(lams))
        worst = max(worst, float(dev.max()))
        violations += int(np.sum(dev > 1e-12))
    with _output(cfg.output) as (fh,):
        fh.write(f"spectra tested: {cfg.count}\n")
        fh.write(f"optimal assignment: {OPTIMAL_SEQUENCE}\n")
        fh.write(f"violations (|brute-force - closed form| > 1e-12): {violations}\n")
        fh.write(f"worst deviation: {_fmt(worst)}\n")
    if violations:
        raise CheckError(f"{violations} spectra violated the optimal-assignment rule")
    return EXIT_OK


def cmd_state(cfg):
    if cfg.family in FAMILIES:
        if cfg.p is None:
            raise UsageError(f"--family {cfg.family} requires --p")
        if cfg.spectrum is not None:
            raise UsageError(f"--family {cfg.family} ignores --spectrum")
        fam = FAMILIES[cfg.family]
        state = fam.construct(cfg.p)
        lam = fam.spectrum(cfg.p)
        expected = max(0.0, fam.curve(cfg.p))
    elif cfg.family == "spectrum":
        if cfg.spectrum is None:
            raise UsageError("--family spectrum requires --spectrum l1,...,l6")
        if cfg.p is not None:
            raise UsageError("--family spectrum ignores --p")
        try:
            lam = validate_spectrum([float(t) for t in cfg.spectrum.split(",")])
        except ValueError as exc:
            raise UsageError(str(exc))
        state = construct_spectrum_xmems(lam)
        expected = max(0.0, n_x_lambda(lam))
    else:
        raise UsageError(f"unknown family {cfg.family!r}; expected rank2|rank3|deg|spectrum")
    rho = state.to_matrix()
    value = _validated(expected, rho, cfg.tolerance, lambda _: f"state {cfg.family}")
    _write_json(
        cfg.output,
        {
            "family": cfg.family,
            "P": cfg.p,
            "params": state.to_dict(),
            "matrix_real": np.real(rho).tolist(),
            "matrix_imag": np.imag(rho).tolist(),
            "spectrum": [float(x) for x in lam],
            "negativity": value,
            "purity": purity(rho),
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Each subcommand's flags beyond the common --seed and -o/--output, by
# destination, with their defaults.  p_min None starts a grid at the first
# purity of the family's domain.
_GRID_FLAGS = {"p_min": None, "p_max": 0.999, "p_steps": 50, "tolerance": 1e-10}
_COMMANDS = {
    "curves": (cmd_curves, _GRID_FLAGS),
    "gap": (cmd_gap, _GRID_FLAGS),
    "certify": (cmd_certify, {**_GRID_FLAGS, "theorem": None}),
    "tgx2": (lambda cfg: _cmd_tgx(cfg, "rank2", maximize_tgx2), {**_GRID_FLAGS, "restarts": 32}),
    "tgx3": (lambda cfg: _cmd_tgx(cfg, "rank3", maximize_tgx3), {**_GRID_FLAGS, "restarts": 32}),
    "acs": (
        cmd_acs,
        {"p_min": 0.21, "p_max": 0.99, "runs": 100, "tolerance": 1e-10, "trace_output": None},
    ),
    "prop1": (cmd_prop1, {"count": 10_000}),
    "state": (cmd_state, {"family": None, "p": None, "spectrum": None, "tolerance": 1e-10}),
}
# argparse keywords of the flags whose default is None; every other flag
# takes the type of its default.
_FLAG_KWARGS = {"p_min": {"type": float}, "theorem": {"choices": THEOREMS}, "p": {"type": float}}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="qqmems", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", default="-")
        for dest, default in flags.items():
            flag = "--" + dest.replace("_", "-")
            kwargs = {} if default is None else {"type": type(default)}
            p.add_argument(flag, default=default, **_FLAG_KWARGS.get(dest, kwargs))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_parser().parse_args(argv)
        if cfg.command is None:
            raise UsageError("a subcommand is required")
        if cfg.seed < 0:
            raise UsageError(f"seed must be >= 0, got {cfg.seed}")
        if "tolerance" in cfg and not (np.isfinite(cfg.tolerance) and cfg.tolerance >= 0):
            raise UsageError(f"tolerance must be finite and >= 0, got {cfg.tolerance}")
        paths = (cfg.output, getattr(cfg, "trace_output", None))
        files = [os.path.realpath(path) for path in paths if path not in (None, "-")]
        files = [f for f in files if os.path.isfile(f) or not os.path.exists(f)]
        if len(set(files)) < len(files):
            raise UsageError(f"artifact paths {' and '.join(paths)} name one file")
        return _COMMANDS[cfg.command][0](cfg)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except _IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
