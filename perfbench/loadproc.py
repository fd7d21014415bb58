"""The load process: the one caller that drives the package.

Reads a job (JSON on stdin), imports ``ginicov`` from the checkout's
``src/``, runs the workload's operations back to back in a closed loop for
the requested time, and writes one JSON line with every operation's wall
time, CPU time and output.  CPU time counts this process and its reaped pool
workers; peak RSS is the larger of the two ``ru_maxrss`` values.  Before
each operation (each round of calls on cli-test), and once after the last,
the calibration kernel is timed; its wall and CPU times are listed in
``calibration``.

With ``trace`` set, each round runs the operation untraced through the pool
(studies only), untraced in-process, and traced in-process with the hooks
installed for that operation alone, and the span summary is added.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import calibration
import tracing
from workloads import METHODS, WORKERS, WORKLOADS


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _timed(fn, *args) -> dict:
    c0, t0 = _cpu(), time.perf_counter()
    try:
        out = {"output": fn(*args)}
    except Exception as exc:  # an operation that raises counts as failed
        out = {"error": f"{type(exc).__name__}: {exc}"}
    out["wall"] = time.perf_counter() - t0
    out["cpu"] = _cpu() - c0
    return out


def _provenance(g) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "ginicov": g.__version__,
        "ginicov_path": str(Path(g.__file__).parent),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def measure(load, seconds):
    """Operations back to back for ``seconds``, with the calibration kernel
    timed before each of them and once after the last."""
    kernel = calibration.Kernel()
    records, kernel_times = [], [calibration.timed(kernel)]
    start = time.perf_counter()
    while len(kernel_times) == 1 or time.perf_counter() - start < seconds:
        records.extend(load.unit())
        kernel_times.append(calibration.timed(kernel))
    return records, kernel_times


class Study:
    """size_power_study / normality_study calls through the public API."""

    def __init__(self, g, wl, seed, inputs):
        self.g, self.wl, self.seed, self.inputs = g, wl, seed, inputs

    def op(self, threads, replicates=None, tracer=None):
        run = self.wl.run
        if tracer is not None:
            run = tracer.wrap(self.wl.entry, run)
        return _timed(run, self.g, self.seed, self.inputs,
                      replicates or self.wl.replicates, threads)

    def warm_up(self):
        self.op(WORKERS, replicates=2)

    def unit(self) -> list:
        return [dict(self.op(WORKERS), mode="e2e")]

    def untraced_round(self) -> list:
        return [dict(self.op(WORKERS), mode="pool"),
                dict(self.op(1), mode="inproc")]

    def traced_round(self, tracer) -> list:
        return [dict(self.op(1, tracer=tracer), mode="traced")]


class Cli:
    """One round is one in-process ``ginicov test`` call per method."""

    def __init__(self, g, wl, seed, inputs):
        import ginicov.cli

        self.main, self.wl, self.seed, self.inputs = ginicov.cli.main, wl, seed, inputs

    def round(self, mode, tracer=None) -> list:
        main = self.main if tracer is None else tracer.wrap(self.wl.entry, self.main)
        return [dict(_timed(self.wl.call, main, self.inputs, m, self.seed),
                     mode=mode, method=m)
                for m in METHODS]

    def warm_up(self):
        # load_csv, the distances and the lazy imports behind them
        self.wl.call(self.main, self.inputs, METHODS[0], self.seed)

    def unit(self) -> list:
        return self.round("e2e")

    def untraced_round(self) -> list:
        return self.round("inproc")

    def traced_round(self, tracer) -> list:
        return self.round("traced", tracer)


def run(job) -> dict:
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import ginicov as g

    if Path(g.__file__).resolve().parent != (src / "ginicov").resolve():
        raise RuntimeError(f"imported ginicov from {g.__file__}, not {src}")
    wl = WORKLOADS[job["workload"]]
    load = (Cli if wl.name == "cli-test" else Study)(g, wl, job["seed"], job["inputs"])
    load.warm_up()
    result = {"provenance": _provenance(g)}
    if not job["trace"]:
        result["records"], result["calibration"] = measure(load, job["seconds"])
    else:
        result["records"], summaries, keys = [], [], []
        installed, absent = set(), []
        start = time.perf_counter()
        while not summaries or time.perf_counter() - start < job["seconds"]:
            result["records"].extend(load.untraced_round())
            tracer = tracing.Tracer()
            with tracing.Hooks(tracer) as hooks:
                result["records"].extend(load.traced_round(tracer))
            installed, absent = hooks.installed, hooks.absent
            summaries.append(tracing.summarize(tracer.spans))
            keys.append((len(tracer.stream_keys), len(set(tracer.stream_keys)),
                         tracer.payload_bytes))
        walls = {m: [r["wall"] for r in result["records"] if r["mode"] == m]
                 for m in ("pool", "inproc", "traced")}
        if wl.name == "cli-test":
            # a round of calls is the unit the in-process and traced walls share
            walls = {m: [sum(v[i:i + len(METHODS)]) for i in range(0, len(v), len(METHODS))]
                     for m, v in walls.items()}
        result["trace"] = {
            "summary": tracing.merge(summaries),
            "traced_ops": len(summaries),
            "installed": sorted(installed),
            "absent": absent,
            "stream_calls": sum(k[0] for k in keys),
            "stream_distinct": sum(k[1] for k in keys),
            "payload_bytes": [b for k in keys for b in k[2]],
            "walls": walls,
        }
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(self_rss, child_rss) / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.stdin.read()))))
