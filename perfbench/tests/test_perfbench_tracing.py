"""Span self-time arithmetic, hook installation and the per-layer metrics."""

import ginicov
import ginicov.ktest
import pytest
import tracing
from tracing import Span


def _tree():
    # root [0, 10]
    #   a [1, 4]          -> grandchild a1 [2, 3]
    #   b [5, 9]          -> b1 [5.5, 6.5] and b2 [6, 7] overlap: union 1.5
    #                        b3 [8.5, 9.5] runs past b: only 0.5 is inside
    return [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b1", 5.5, 6.5, 3),
        Span("b1", 6.0, 7.0, 3),
        Span("b3", 8.5, 9.5, 3),
    ]


def test_self_times_on_nested_tree():
    assert tracing.self_times(_tree()) == pytest.approx(
        [10 - 3 - 4, 3 - 1, 1, 4 - 1.5 - 0.5, 1, 1, 1]
    )


def test_summarize_and_merge():
    s = tracing.summarize(_tree())
    assert s["names"]["b1"] == {"calls": 2, "total": 2.0, "self": 2.0}
    assert s["root_s"] == 10.0
    assert s["coverage"] == pytest.approx(0.7)
    m = tracing.merge([s, s])
    assert m["names"]["a"] == {"calls": 2, "total": 6.0, "self": 4.0}
    assert m["coverage"] == pytest.approx(0.7)


def test_tracer_records_parents():
    clock = iter(range(100)).__next__
    t = tracing.Tracer(clock=clock)
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in t.spans] == [
        ("outer", 0, 3, None), ("inner", 1, 2, 0)
    ]


def _traced_normal_study(replicates=4):
    cfg = ginicov.StudyConfig(
        scenario=ginicov.ScenarioSpec(example=1, p=30, sizes=(6, 7, 8), seed=3),
        replicates=replicates, seed=3,
    )
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        tracer.wrap("experiments.normality_study", ginicov.normality_study)(
            cfg, threads=1
        )
    return tracer, hooks


def _trace_report(tracer, hooks):
    return {
        "summary": tracing.summarize(tracer.spans), "traced_ops": 1,
        "installed": sorted(hooks.installed), "absent": hooks.absent,
        "stream_calls": len(tracer.stream_keys),
        "stream_distinct": len(set(tracer.stream_keys)),
        "payload_bytes": tracer.payload_bytes,
        "walls": {"pool": [], "inproc": [1.0], "traced": [1.1]},
    }


def test_hooks_trace_a_study_and_restore_names():
    original = ginicov.ktest.substream
    tracer, hooks = _traced_normal_study()
    assert ginicov.ktest.substream is original
    assert hooks.absent == []
    names = tracing.summarize(tracer.spans)["names"]
    assert names["distmat.pairwise"]["calls"] == 4
    assert names["streams.substream"]["calls"] == 4 * 3
    design = {"n": 21, "p": 30, "permutations": 0, "workers": 2,
              "csv_bytes": 0}
    layer = tracing.layer_metrics(_trace_report(tracer, hooks), design)
    assert set(layer) == set(tracing.PER_LAYER)
    assert layer["distmat.pairwise.calls"] == (4.0, "measured")
    assert layer["core.validate.calls_per_test"] == (2.0, "measured")
    assert layer["ktest.perm.eval_us_per_replicate"] == (0.0, "not exercised")
    assert 0.5 < layer["trace.coverage"][0] <= 1.0


def test_missing_hook_targets_are_reported_absent(monkeypatch):
    monkeypatch.delattr(ginicov.experiments, "_run_tasks", raising=True)
    monkeypatch.setattr(
        ginicov.experiments, "normality_study",
        lambda cfg, threads: None, raising=True,
    )
    monkeypatch.delattr(ginicov.ktest, "u_center", raising=True)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        pass
    assert "experiments._run_tasks" in hooks.absent
    assert "ktest.u_center" in hooks.absent
    # estimators still imports u_center, so the layer stays measured
    assert "distmat.u_center" in hooks.installed
    design = {"n": 21, "p": 30, "permutations": 0, "workers": 2,
              "csv_bytes": 0}
    layer = tracing.layer_metrics(_trace_report(tracer, hooks), design)
    assert layer["experiments.tasks"] == (0.0, "absent")
    assert layer["experiments.payload_bytes_per_task"] == (0.0, "absent")


def test_missing_module_is_reported_absent():
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer, package="ginicov.nonexistent") as hooks:
        pass
    assert hooks.installed == set()
    assert len(hooks.absent) == len(tracing.SPAN_HOOKS) + 1


def test_benchmark_json_lists_the_reported_metrics():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, *_rest) in tracing.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
