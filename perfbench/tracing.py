"""Spans and counters installed from outside the library, for the traced run.

`Tracer.install` wraps public functions of the qqmems modules in place and
`Tracer.uninstall` restores them; nothing under `src/` knows about tracing.
A public function is wrapped wherever another module refers to it, which
marks every call that crosses a module boundary.  The functions in `INNER`,
which the per-layer metrics name, are wrapped in their own module as well,
so calls from inside that module are traced too.  Public methods of public
classes (such as `XState.to_matrix`) are wrapped on the class.

A span is `[name, start, end, parent, op]`: `parent` is the index of the
enclosing span (-1 at the top) and `op` the operation id, here the index of
the CLI command in the workload.  Spans stay in memory until `dump`.
"""

import functools
import inspect
import json
import sys
import time

MODULES = ("linalg", "xstate", "spectrum", "purity_mems", "tgx", "acs")

# Functions the per-layer metrics name; traced even on intra-module calls.
INNER = (
    "linalg.negativity",
    "linalg.eig_hermitian",
    "linalg.random_density_fixed_purity",
    "purity_mems.construct_rank2",
    "purity_mems.construct_rank3",
    "purity_mems.construct_deg",
    "purity_mems.verify_certificate",
    "spectrum.best_sequence_bruteforce",
    "spectrum.construct_spectrum_xmems",
    "tgx.maximize_tgx2",
    "tgx.maximize_tgx3",
    "acs.acs_sweep",
    "acs.acs_run",
    "acs.pi_step",
    "acs.rho_step",
    "acs.vector_subproblem",
)

# Span name of the scipy optimizer as the TGX module calls it.  Optional:
# a later search may not use it, and then its counters are reported absent.
TGX_MINIMIZE = "tgx.minimize"

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.absent = {}  # hook name -> reason it could not be installed
        self.op = -1
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, *args, on_result=None, **kwargs):
        """Call fn inside a span named `name`; `on_result` sees its return value."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][END] = time.perf_counter()
        if on_result is not None:
            on_result(result)
        return result

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, on_result=on_result, **kwargs)

        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap the public functions of the loaded qqmems modules, and the
        optional hooks.  Private modules are neither wrapped nor scanned."""
        package = "qqmems"
        modules = {
            n: m
            for n, m in list(sys.modules.items())
            if n == package or (n.startswith(package + ".") and not n.split(".")[1].startswith("_"))
        }
        for short in MODULES:
            mod = modules.get(f"{package}.{short}")
            if mod is None:
                self.absent[short] = f"module {package}.{short} is not loaded"
                continue
            for name in getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")]):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = f"{short}.{name}"
                    wrapper = self.wrap(full, obj, self._hook(full))
                    self._replace(modules, obj, wrapper, skip=None if full in INNER else mod)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self.wrap(f"{short}.{name}.{meth}", fn))
        for full in INNER:
            short, name = full.split(".")
            if not callable(getattr(modules.get(f"{package}.{short}"), name, None)):
                self.absent[full] = f"{package}.{full} does not exist"
        tgx = modules.get(f"{package}.tgx")
        minimize = getattr(tgx, "minimize", None)
        if callable(minimize):
            self._set(tgx, "minimize", self.wrap(TGX_MINIMIZE, minimize, self._count_nfev))
        else:
            self.absent[TGX_MINIMIZE] = f"{package}.tgx has no name 'minimize'"

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, modules, original, wrapper, skip):
        """Point every module-level reference to `original` at `wrapper`,
        except in the module `skip`."""
        for mod in modules.values():
            if mod is skip:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # -- counters read from return values -----------------------------------

    def _hook(self, full):
        if full in ("tgx.maximize_tgx2", "tgx.maximize_tgx3"):
            return self._count_maximize
        if full == "acs.acs_run":
            return self._count_rounds
        return None

    def _count_nfev(self, res):
        self.count("tgx.nfev", int(getattr(res, "nfev", 0)))

    def _count_maximize(self, result):
        restarts = getattr(result, "restarts_used", None)
        if restarts is not None:
            self.count("tgx.restarts", int(restarts))
        nfev = getattr(result, "nfev", None)
        if nfev is not None and TGX_MINIMIZE in self.absent:
            self.count("tgx.nfev", int(nfev))

    def _count_rounds(self, trace):
        rounds = getattr(trace, "rounds_used", None)
        if rounds is not None:
            self.count("acs.rounds", int(rounds))

    # -- output -------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - _covered(children[i]) for i, s in enumerate(spans)]


def outermost(spans, names):
    """Indices of spans named in `names` with no ancestor named in `names`,
    so recursion and nesting inside a group are counted once.  Relies on a
    parent's index being smaller than its children's, as `Tracer` records."""
    names = set(names)
    inside = [False] * len(spans)
    out = []
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = p >= 0 and (inside[p] or spans[p][NAME] in names)
        if s[NAME] in names and not inside[i]:
            out.append(i)
    return out


def busy(spans, names):
    """(calls, seconds) over the outermost spans of the group `names`."""
    idx = outermost(spans, names)
    return len(idx), sum(spans[i][END] - spans[i][START] for i in idx)
