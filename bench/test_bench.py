"""Self-tests of the benchmark's tracer and report check.

    python3 -m pytest -q bench/test_bench.py

The traced-run test runs real workload commands (about half a minute).
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

import check
import worker
from tracer import (MEMORY_SPANS, METHODS, PEAK_METRICS, Span, Tracer,
                    installed_wrappers)
from workloads import DEFAULT_SEED, WORKLOADS

hcli = worker.import_homspace()
BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


def _span(name, parent, start, end):
    s = Span(name, name.split(".")[0], parent, "cmd")
    s.start, s.end = start, end
    return s


def test_self_time_arithmetic_on_nested_spans():
    tr = Tracer()
    tr.spans = [
        _span("lab.suite", None, 0.0, 10.0),
        _span("difference.lipschitz_norm", 0, 1.0, 3.0),
        _span("norms.lebesgue_norm", 1, 1.5, 2.0),
        _span("difference.lipschitz_norm", 0, 4.0, 7.0),
        _span("difference.lipschitz_norm", 3, 5.0, 6.0),   # recursive call
        _span("lab.suite", None, 20.0, 21.0),
    ]
    assert tr.self_times() == pytest.approx([5.0, 1.5, 0.5, 2.0, 1.0, 1.0])
    assert tr.layer_self_s("lab") == pytest.approx(6.0)
    assert tr.layer_self_s("difference") == pytest.approx(4.5)
    # the recursive inner span is covered by its outer span
    assert tr.inclusive_s("difference.lipschitz_norm") == pytest.approx(5.0)
    assert tr.calls("difference.lipschitz_norm") == 3


def test_wrapper_links_parents_and_reads_the_clock():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("norms.inner", lambda x: x + 1)
    outer = tr.wrap("lab.outer", lambda x: inner(x) * 2)
    tr.command = "c1"
    assert outer(1) == 4
    assert [(s.name, s.parent, s.command) for s in tr.spans] == [
        ("lab.outer", None, "c1"), ("norms.inner", 0, "c1")]
    assert tr.self_times() == pytest.approx([8.0, 2.0])


def test_timing_pass_runs_no_tracemalloc_and_pause_records_nothing():
    seen = []
    fn = Tracer().wrap("kernels.validate_ati",
                       lambda: seen.append(tracemalloc.is_tracing()))
    fn()
    assert seen == [False]
    tr = Tracer(memory_spans=MEMORY_SPANS)
    fn = tr.wrap("kernels.validate_ati",
                 lambda: seen.append(tracemalloc.is_tracing()))
    fn()
    assert seen == [False, True] and tr.spans[0].peak_bytes is not None
    tr.recording = False
    fn()
    assert len(tr.spans) == 1 and not tracemalloc.is_tracing()


def _bindings():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "homspace" or name.startswith("homspace."):
            snap[name] = dict(vars(mod))
    for layer, cls, _ in METHODS:
        owner = getattr(sys.modules[f"homspace.{layer}"], cls)
        snap[cls] = dict(vars(owner))
    return snap


def test_uninstall_restores_every_binding():
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        wrapped = {(getattr(o, "__name__", o), a)
                   for o, a in installed_wrappers()}
        for key in [("homspace.lab", "lipschitz_norm"),
                    ("homspace.cli", "validate_ati"),
                    ("homspace.cli", "main"),
                    ("homspace", "lipschitz_norm"),
                    ("homspace.space", "certify_a0"),
                    ("MetricMeasureSpace", "v_table"),
                    ("KernelStack", "apply_all")]:
            assert key in wrapped
        # private helpers and classes stay untouched
        assert not hasattr(sys.modules["homspace.kernels"].KernelStack,
                           "__bench_span__")
        assert inspect.isfunction(sys.modules["homspace.cli"]._lab_pipe)
        assert ("homspace.cli", "_lab_pipe") not in wrapped
    finally:
        tr.uninstall()
    after = _bindings()
    assert installed_wrappers() == []
    assert before.keys() == after.keys()
    for key in before:
        assert before[key].keys() == after[key].keys()
        for attr, val in before[key].items():
            assert after[key][attr] is val, f"{key}.{attr} not restored"


def test_untraced_path_installs_no_wrapper(tmp_path):
    wl = WORKLOADS["frame-lemmas"]
    assert worker.time_setup(hcli, wl, DEFAULT_SEED) > 0
    res = worker.run_step(hcli, wl, wl.steps[0], DEFAULT_SEED, tmp_path, None)
    assert res["problems"] == []
    assert installed_wrappers() == []


# (workload, steps run, counts predicted zero, counts predicted nonzero)
PREDICTIONS = [
    ("theorem-band", 1, [],
     ["kernels.validate_calls", "norms.calls", "difference.lipschitz_calls",
      "space.a0_triples", "kernels.apply_calls", "lab.fields",
      *PEAK_METRICS]),
    ("embedding-suite", 1, ["kernels.validate_calls", "norms.calls"],
     ["difference.lipschitz_calls", "difference.truncated_calls",
      "space.a0_triples", "space.ball_measure_calls", "difference.peak_mb"]),
    ("frame-lemmas", 2,
     ["difference.lipschitz_calls", "kernels.validate_calls", *PEAK_METRICS],
     ["operators.hl_maximal_calls", "operators.cg_iterations",
      "operators.frame_operator_calls", "cli.bytes_written",
      "dyadic.cubes", "kernels.semigroup_calls"]),
]


@pytest.mark.parametrize("name,nsteps,zero,nonzero", PREDICTIONS,
                         ids=[p[0] for p in PREDICTIONS])
def test_traced_counts_match_predictions(tmp_path, name, nsteps, zero,
                                         nonzero):
    wl = WORKLOADS[name]
    tr = Tracer(memory_spans=MEMORY_SPANS)
    tr.install()
    try:
        for step in wl.steps[:nsteps]:
            res = worker.run_step(hcli, wl, step, DEFAULT_SEED, tmp_path,
                                  None, tr)
            assert res["problems"] == []
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics()
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == declared - {"trace.overhead_s"} - {
        n for n in declared if n.startswith("cmd.")}
    for m in zero:
        assert metrics[m] == 0, m
    for m in nonzero:
        assert metrics[m] > 0, m
    assert all(s.end >= s.start for s in tr.spans)


def test_check_compares_cells_with_relative_tolerance(tmp_path):
    ref = "PASS [band] x value=1.0000000000000000 cap=4\n"
    assert check.compare_text(ref, "PASS [band] x value=1.0000000001 cap=4\n") \
        is None
    assert "differs" in check.compare_text(
        ref, "PASS [band] x value=1.00001 cap=4\n")
    assert "differs" in check.compare_text(ref, "FAIL [band] x value=1 cap=4\n")
    assert check.compare_text("a,nan,inf\n", "a,nan,inf\n") is None
    assert check.compare_text("a,1\n", "a,1\nb,2\n") is not None
    (tmp_path / "out").mkdir()
    (tmp_path / "ref").mkdir()
    (tmp_path / "ref" / "r.csv").write_text("a,1\n")
    (tmp_path / "out" / "r.csv").write_text("a,2\n")
    (tmp_path / "out" / "run_meta.json").write_text("{}\n")
    assert check.compare_dir(tmp_path / "out", tmp_path / "ref") == [
        "r.csv: line 1: '2' differs from reference '1'"]


def test_stored_reference_covers_every_step():
    ref = Path(worker.REFERENCE) / f"seed{DEFAULT_SEED}"
    for wl in WORKLOADS.values():
        for step in wl.steps:
            assert check.report_files(ref / wl.name / step.name), step.name
