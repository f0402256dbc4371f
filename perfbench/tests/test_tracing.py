"""Span arithmetic, wrapper installation and the metric lists."""

import json
from pathlib import Path

import pytest

import run
import tracing


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


# main [0, 10] -> a [1, 4] -> a [2, 3] (recursive)
#              -> b [5, 6]
#              -> c [5.5, 7] (overlaps b)
TREE = [
    _span("main", 0.0, 10.0, -1),
    _span("a", 1.0, 4.0, 0),
    _span("a", 2.0, 3.0, 1),
    _span("b", 5.0, 6.0, 0),
    _span("c", 5.5, 7.0, 0),
]


def test_self_time_subtracts_the_union_of_direct_children():
    assert tracing.self_times(TREE) == pytest.approx([10 - 3 - 2, 3 - 1, 1, 1, 1.5])


def test_busy_counts_nested_spans_of_a_group_once():
    assert tracing.busy(TREE, ["a"]) == (1, 3.0)
    assert tracing.busy(TREE, ["a", "b"]) == (2, 4.0)
    assert tracing.busy(TREE, ["main", "a"]) == (1, 10.0)
    assert tracing.busy(TREE, ["missing"]) == (0, 0)


def test_tracer_records_parents_and_operations():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    tracer.op = 7
    assert tracer.span("outer", lambda: inner(1) + inner(2)) == 5
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.OP]) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_install_wraps_cross_module_and_named_calls_and_uninstall_restores():
    import qqmems.acs
    import qqmems.cli
    import qqmems.linalg

    originals = (qqmems.cli.acs_run, qqmems.acs.acs_run, qqmems.linalg.eig_hermitian, qqmems.acs.pi_objective)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qqmems.cli.acs_run is not originals[0]
        assert qqmems.acs.acs_run is not originals[1]  # named: traced inside acs too
        assert qqmems.linalg.eig_hermitian is not originals[2]
        assert qqmems.acs.pi_objective is originals[3]  # unnamed: only cross-module calls
        assert tracer.absent == {}
        rho = qqmems.linalg.random_density_fixed_purity(0.5, __import__("numpy").random.default_rng(0))
        qqmems.cli.acs_run(0.5, rho)
    finally:
        tracer.uninstall()
    assert (qqmems.cli.acs_run, qqmems.acs.acs_run, qqmems.linalg.eig_hermitian, qqmems.acs.pi_objective) == originals
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"acs.acs_run", "acs.pi_step", "acs.rho_step", "acs.vector_subproblem", "linalg.eig_hermitian"} <= names
    assert tracer.counters["acs.rounds"] >= 1


def test_missing_optional_hook_is_reported_absent(monkeypatch):
    import qqmems.tgx

    monkeypatch.delattr(qqmems.tgx, "minimize")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "minimize" in tracer.absent[tracing.TGX_MINIMIZE]


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | zipimport",
            "import time:      2000 |       2000 |   scipy.linalg",
            "import time:       500 |       2500 | scipy",
            "import time:        40 |         40 |   qqmems.acs",
            "import time:        60 |       2600 | qqmems",
        ]
    )
    assert run.parse_importtime(text) == pytest.approx((2.7e-3, 2.5e-3, 1e-4))


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E_JSON
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_JSON
    assert [w["name"] for w in spec["workloads"]] == list(run.WHY)
    assert [w["why"] for w in spec["workloads"]] == list(run.WHY.values())
