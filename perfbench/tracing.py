"""Spans recorded from outside the program, and the per-layer metrics.

A traced run rebinds the names each package module imports from the layer
below (``experiments.scenario_dataset``, ``ktest.substream``, ...) to
wrappers that record a span: name, start, end and the span open when it
started.  A layer's self time is its span's duration minus the part of that
interval its child spans cover.  A rebinding target that no longer exists is
reported as absent; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import time
from dataclasses import dataclass, field
from statistics import median

# (module, attribute, span name); the span name is "<layer>.<what>"
SPAN_HOOKS = (
    ("experiments", "scenario_dataset", "simgen.scenario_dataset"),
    ("experiments", "group_index", "core.group_index"),
    ("experiments", "pairwise_distances", "distmat.pairwise"),
    ("experiments", "_normal_test_from_distance", "ktest.normal"),
    ("experiments", "_perm_test_from_distance", "ktest.perm"),
    ("simgen", "substream", "streams.substream"),
    ("ktest", "substream", "streams.substream"),
    ("ktest", "u_center", "distmat.u_center"),
    ("ktest", "gini_estimates", "estimators.gini_estimates"),
    ("ktest", "group_index", "core.group_index"),
    ("ktest", "validate_for_testing", "core.validate"),
    ("ktest", "pairwise_distances", "distmat.pairwise"),
    ("ktest", "_normal_test_from_distance", "ktest.normal"),
    ("ktest", "_perm_test_from_distance", "ktest.perm"),
    ("estimators", "u_center", "distmat.u_center"),
    ("estimators", "validate_for_testing", "core.validate"),
    ("cli", "load_csv", "core.load_csv"),
    ("cli", "group_index", "core.group_index"),
    ("cli", "gini_normal_test", "ktest.gini_normal_test"),
    ("cli", "permutation_test", "ktest.permutation_test"),
)
# the study's task dispatcher is counted, not timed: its payloads are the
# pickled tasks a pool would receive
TASKS_HOOK = ("experiments", "_run_tasks")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """In-memory span recorder for one single-threaded traced operation."""

    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    stream_keys: list = field(default_factory=list)
    payload_bytes: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def wrap(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, self.clock(), 0.0, parent))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = self.clock()

        return traced

    def _count_tasks(self, args):
        payloads = args[1]
        self.payload_bytes.extend(len(pickle.dumps(p)) for p in payloads)

    def _count_stream(self, args):
        self.stream_keys.append(tuple(int(a) for a in args))


class Hooks:
    """Install the tracer's wrappers; restore the original names on exit."""

    def __init__(self, tracer: Tracer, package: str = "ginicov"):
        self.tracer = tracer
        self.package = package
        self.installed = set()  # span names with at least one live hook
        self.absent = []  # "module.attribute" targets that do not exist
        self._saved = []

    def _rebind(self, module_name, attr, make):
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ModuleNotFoundError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def __enter__(self):
        t = self.tracer
        for module_name, attr, name in SPAN_HOOKS:
            on_call = t._count_stream if name == "streams.substream" else None
            if self._rebind(
                module_name, attr, lambda fn: t.wrap(name, fn, on_call)
            ):
                self.installed.add(name)
        if self._rebind(*TASKS_HOOK, lambda fn: _passthrough(fn, t._count_tasks)):
            self.installed.add("experiments.tasks")
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _passthrough(fn, on_call):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        on_call(args)
        return fn(*args, **kwargs)

    return counted


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def summarize(spans) -> dict:
    """Calls, total and self seconds per span name, plus root coverage.

    ``coverage`` is the share of the root spans' time that their direct
    children cover, the part of the operation the layer spans explain.
    """
    selfs = self_times(spans)
    by_name = {}
    for s, own in zip(spans, selfs):
        agg = by_name.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0})
        agg["calls"] += 1
        agg["total"] += s.end - s.start
        agg["self"] += own
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    root_time = sum(spans[i].end - spans[i].start for i in roots)
    root_self = sum(selfs[i] for i in roots)
    coverage = 1.0 - root_self / root_time if root_time > 0 else 0.0
    return {"names": by_name, "root_s": root_time, "coverage": coverage}


def merge(summaries) -> dict:
    """Sum span summaries of several traced operations."""
    names = {}
    for s in summaries:
        for name, agg in s["names"].items():
            acc = names.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += agg[key]
    root = sum(s["root_s"] for s in summaries)
    covered = sum(s["coverage"] * s["root_s"] for s in summaries)
    return {"names": names, "root_s": root,
            "coverage": covered / root if root > 0 else 0.0}


_M, _C = "measured", "computed"
# name -> (unit, better, kind, the span names it needs).  "computed" values
# are arithmetic on the design or on exact counts and repeat exactly from
# run to run; "measured" values come from the clock.
PER_LAYER = {
    "simgen.self_ms_per_replicate": ("ms", "lower", _M, ("simgen.scenario_dataset",)),
    "simgen.bytes": ("count", "lower", _C, ("simgen.scenario_dataset",)),
    "distmat.pairwise.self_ms": ("ms", "lower", _M, ("distmat.pairwise",)),
    "distmat.pairwise.calls": ("count", "lower", _M, ("distmat.pairwise",)),
    "distmat.pairwise.flops": ("count", "lower", _C, ("distmat.pairwise",)),
    "distmat.u_center.self_ms": ("ms", "lower", _M, ("distmat.u_center",)),
    "distmat.u_center.per_matrix": (
        "count", "lower", _C, ("distmat.u_center", "distmat.pairwise")
    ),
    "estimators.self_ms": ("ms", "lower", _M, ("estimators.gini_estimates",)),
    "streams.substream.calls": ("count", "lower", _M, ("streams.substream",)),
    "streams.self_us_per_stream": ("us", "lower", _M, ("streams.substream",)),
    "streams.distinct_ratio": ("ratio", "higher", _C, ("streams.substream",)),
    "ktest.perm.eval_us_per_replicate": ("us", "lower", _M, ("ktest.perm",)),
    "ktest.normal.self_ms": ("ms", "lower", _M, ("ktest.normal",)),
    "experiments.tasks": ("count", "lower", _M, ("experiments.tasks",)),
    "experiments.payload_bytes_per_task": ("bytes", "lower", _C, ("experiments.tasks",)),
    "experiments.pool_efficiency": ("ratio", "higher", _M, ()),
    "experiments.wait_ms": ("ms", "lower", _M, ()),
    "core.load_csv.self_ms": ("ms", "lower", _M, ("core.load_csv",)),
    "core.load_csv.mb_per_s": ("MB/s", "higher", _M, ("core.load_csv",)),
    "core.group_index.calls_per_test": ("count", "lower", _M, ("core.group_index",)),
    "core.validate.calls_per_test": ("count", "lower", _M, ("core.validate",)),
    "cli.self_ms": ("ms", "lower", _M, ()),
    "trace.overhead_ms": ("ms", "lower", _M, ()),
    "trace.coverage": ("ratio", "higher", _M, ()),
}


def _per_call(agg, name, key="self", scale=1e3):
    a = agg.get(name)
    if not a or not a["calls"]:
        return None
    return a[key] / a["calls"] * scale


def layer_metrics(trace: dict, design: dict) -> dict:
    """Per-layer metrics of one traced run: name -> (value, status).

    ``trace`` is what the load process reports: merged span summary, the
    installed and absent hooks, stream and task counts and the walls of the
    untraced pooled, untraced in-process and traced operations.
    ``design`` gives n, p, replicates per operation, permutations B,
    the worker count and the CSV size.  Status is "measured", "computed",
    "absent" (a hook it needs is gone) or "not exercised" (the workload
    never calls the layer); the last two report 0.
    """
    agg = trace["summary"]["names"]
    ops = max(1, trace["traced_ops"])
    n, p = design["n"], design["p"]
    calls = {name: a["calls"] for name, a in agg.items()}
    tests = calls.get("ktest.normal", 0) + calls.get("ktest.perm", 0)
    pairwise = calls.get("distmat.pairwise", 0)
    streams = trace["stream_calls"]
    payloads = trace["payload_bytes"]
    walls = trace["walls"]

    values = {
        "simgen.self_ms_per_replicate": _per_call(agg, "simgen.scenario_dataset"),
        "simgen.bytes": n * p * 8 if calls.get("simgen.scenario_dataset") else None,
        "distmat.pairwise.self_ms": _per_call(agg, "distmat.pairwise"),
        "distmat.pairwise.calls": pairwise / ops if pairwise else None,
        "distmat.pairwise.flops": 3 * (n * (n - 1) // 2) * p if pairwise else None,
        "distmat.u_center.self_ms": _per_call(agg, "distmat.u_center"),
        "distmat.u_center.per_matrix": (
            calls.get("distmat.u_center", 0) / pairwise if pairwise else None
        ),
        "estimators.self_ms": _per_call(agg, "estimators.gini_estimates"),
        "streams.substream.calls": streams / ops if streams else None,
        "streams.self_us_per_stream": _per_call(
            agg, "streams.substream", scale=1e6
        ),
        "streams.distinct_ratio": (
            trace["stream_distinct"] / streams if streams else None
        ),
        "ktest.perm.eval_us_per_replicate": (
            _per_call(agg, "ktest.perm", scale=1e6) / design["permutations"]
            if calls.get("ktest.perm") else None
        ),
        "ktest.normal.self_ms": _per_call(agg, "ktest.normal"),
        "experiments.tasks": len(payloads) / ops if payloads else None,
        "experiments.payload_bytes_per_task": (
            sum(payloads) / len(payloads) if payloads else None
        ),
        "core.load_csv.self_ms": _per_call(agg, "core.load_csv"),
        "core.load_csv.mb_per_s": (
            design["csv_bytes"] / 1e3 / _per_call(agg, "core.load_csv")
            if calls.get("core.load_csv") else None
        ),
        "core.group_index.calls_per_test": (
            calls.get("core.group_index", 0) / tests if tests else None
        ),
        "core.validate.calls_per_test": (
            calls.get("core.validate", 0) / tests if tests else None
        ),
        "cli.self_ms": _per_call(agg, "cli.main"),
        "trace.coverage": trace["summary"]["coverage"],
        "trace.overhead_ms": (median(walls["traced"]) - median(walls["inproc"])) * 1e3,
    }
    if walls["pool"]:
        pool, inproc = median(walls["pool"]), median(walls["inproc"])
        values["experiments.pool_efficiency"] = inproc / (design["workers"] * pool)
        values["experiments.wait_ms"] = (pool - inproc / design["workers"]) * 1e3
    else:
        values["experiments.pool_efficiency"] = None
        values["experiments.wait_ms"] = None

    installed = set(trace["installed"])
    out = {}
    for name, (_unit, _better, kind, needs) in PER_LAYER.items():
        value = values[name]
        if not installed.issuperset(needs):
            out[name] = (0.0, "absent")
        elif value is None:
            out[name] = (0.0, "not exercised")
        else:
            out[name] = (float(value), kind)
    return out
