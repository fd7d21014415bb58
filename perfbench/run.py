"""ginicov benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload perm-study --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from its
``src/``).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the details: provenance, sample counts, spreads, extra metrics and
any output mismatches.  Workloads, metrics and method are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
from workloads import METHODS, WORKERS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "cpu_per_replicate_ms": "ms",
    "peak_rss_mb": "MB",
}

_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import ginicov"


def _fail(message: str, code: int = 1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_seconds(code: str = _IMPORT) -> float:
    """Wall time of a fresh interpreter that runs ``code`` (by default,
    imports the package)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        _fail(f"{code!r} failed:\n{proc.stderr}")
    return time.perf_counter() - t0


def set_up(wl, seed):
    """Import the package in fresh interpreters and build the inputs,
    SETUP_SAMPLES times, with the baseline import timed before and after
    each sample; the first import (bytecode compilation) is discarded.
    Returns the inputs, the per-sample set-up seconds and the baseline
    import seconds."""
    WORKDIR.mkdir(exist_ok=True)
    _import_seconds()
    samples, baseline = [], [_import_seconds(calibration.BASELINE_IMPORT)]
    for _ in range(SETUP_SAMPLES):
        imp = _import_seconds()
        t0 = time.perf_counter()
        inputs = wl.setup(seed, WORKDIR)
        samples.append(imp + time.perf_counter() - t0)
        baseline.append(_import_seconds(calibration.BASELINE_IMPORT))
    return inputs, samples, baseline


def run_load(job, timeout):
    """Run the load process to completion; kill its whole group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "loadproc.py")],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        _fail(f"load process exceeded {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        _fail(f"load process failed (exit {proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def check(wl, expected, records):
    """Failed operations: raised, or output differs from the reference."""
    failures = []
    for r in records:
        if "error" in r:
            failures.append(r["error"])
            continue
        try:
            errors = wl.check(expected, r["output"])
        except (KeyError, TypeError, ValueError) as exc:
            errors = [f"malformed output: {exc!r}"]
        if errors:
            failures.append("; ".join(errors))
    return failures


def _stats(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "samples": len(values)}


def end_to_end(wl, records, kernel_times, setup, setup_baseline, peak_rss):
    """Each timing is the median over operations, with its sample count.

    A replicate is one study replicate, or one ``ginicov test`` call on
    cli-test; rates and CPU are taken per operation (per round of one call
    per method on cli-test).  Rates and CPU are scaled by the host's speed,
    measured by the calibration kernel runs just before and after each
    operation, set-up samples by the baseline imports just before and after
    each; then the median is reported.  The unscaled values are listed as
    ``raw_*``.
    """
    if wl.name == "cli-test":
        k = len(METHODS)
        units = [records[i:i + k] for i in range(0, len(records) - k + 1, k)]
        per_op = [(k, sum(r["wall"] for r in u), sum(r["cpu"] for r in u))
                  for u in units]
    else:
        per_op = [(wl.replicates, r["wall"], r["cpu"]) for r in records]
    if len(kernel_times) != len(per_op) + 1:
        _fail(f"{len(per_op)} operations but {len(kernel_times)} calibrations")
    if len(setup_baseline) != len(setup) + 1:
        _fail(f"{len(setup)} set-ups but {len(setup_baseline)} baseline imports")
    wall_speed = calibration.speeds([t["wall"] for t in kernel_times],
                                    calibration.REFERENCE_S)
    cpu_speed = calibration.speeds([t["cpu"] for t in kernel_times],
                                   calibration.REFERENCE_S)
    setup_speed = calibration.speeds(setup_baseline,
                                     calibration.IMPORT_REFERENCE_S)
    raw_rate = [n / wall for n, wall, _ in per_op]
    raw_cpu = [cpu / n * 1e3 for n, _, cpu in per_op]
    samples = {
        "setup_s": [t * s for t, s in zip(setup, setup_speed)],
        "replicates_per_s": [r / s for r, s in zip(raw_rate, wall_speed)],
        "cpu_per_replicate_ms": [c * s for c, s in zip(raw_cpu, cpu_speed)],
        "peak_rss_mb": [peak_rss],
        "raw_setup_s": setup,
        "raw_replicates_per_s": raw_rate,
        "raw_cpu_per_replicate_ms": raw_cpu,
        "calibration_s": [t["wall"] for t in kernel_times],
        "baseline_import_s": setup_baseline,
    }
    if wl.name == "cli-test":
        for m in METHODS:
            name = f"test_{m.replace('-', '_')}_s"
            samples[name] = [r["wall"] for r in records if r["method"] == m]
    return samples


def provenance(seed, child) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            git = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return dict(
        child,
        seed=seed,
        git_commit=git,
        source_sha256=digest.hexdigest(),
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        workers=WORKERS,
        thread_env={k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0", 2)
    if not (ROOT / "src" / "ginicov" / "__init__.py").is_file():
        _fail(f"no package source at {ROOT / 'src' / 'ginicov'}; "
              "run from the root of a ginicov checkout", 2)
    try:
        return measure(WORKLOADS[args.workload], args)
    finally:
        for path in WORKDIR.glob("*"):
            path.unlink()


def measure(wl, args) -> int:
    started = time.perf_counter()
    inputs, setup, setup_baseline = set_up(wl, args.seed)
    expected = wl.expected(args.seed, inputs)
    job = {"root": str(ROOT), "workload": wl.name, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace),
           "inputs": inputs}
    result = run_load(job, DEADLINE_S - (time.perf_counter() - started))
    records = result["records"]
    failures = check(wl, expected, records)

    detail = {
        "workload": wl.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, result["provenance"]),
        "attempted": len(records),
        "failed": len(failures),
        "error_rate": {"value": len(failures) / len(records), "unit": "ratio"},
        "failures": failures[:5],
    }
    if args.trace:
        design = dict(wl.design(), workers=WORKERS,
                      csv_bytes=inputs.get("csv_bytes", 0))
        layer = tracing.layer_metrics(result["trace"], design)
        metrics = {name: {"value": v, "unit": tracing.PER_LAYER[name][0]}
                   for name, (v, _) in layer.items()}
        detail["status"] = {name: s for name, (_, s) in layer.items()}
        detail["absent_hooks"] = result["trace"]["absent"]
        detail["traced_ops"] = result["trace"]["traced_ops"]
    else:
        samples = end_to_end(wl, records, result["calibration"], setup,
                             setup_baseline, result["peak_rss_mb"])
        detail["samples"] = {name: _stats(v) for name, v in samples.items()}
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name in samples:
            if name.startswith("test_"):
                detail[name] = {"value": statistics.median(samples[name]),
                                "unit": "s", "samples": len(samples[name])}
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
